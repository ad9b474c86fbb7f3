// Package httpmirror turns the planning library into a runnable
// mirror service: a Mirror fetches objects from an upstream Source
// over HTTP on the schedule a plan prescribes, serves local copies,
// learns the master profile from its own access log, estimates
// per-object change rates from what its refreshes observe (every fetch
// doubles as a change poll), and re-plans periodically — the full loop
// the paper's system diagram implies for a deployment rather than a
// simulation.
//
// The source protocol is deliberately minimal so any origin can
// implement it:
//
//	GET  /catalog      -> JSON [{"id":0,"size":1}, ...]
//	GET  /object/{id}  -> body with X-Version header
//	HEAD /object/{id}  -> X-Version header only (cheap change check)
//
// A catalog in the compact form json.Marshal writes, the form every
// server here answers, is parsed by hand; any other JSON of the same
// shape goes to encoding/json (see catalog.go).
//
// An origin may also serve one optional route, which speeds up a
// mirror's boot (see BatchSource):
//
//	GET  /objects?ids=a,b,... -> one "{id} {version} {len}\n" frame
//	                             and len body bytes per id
//
// SimulatedSource implements it all with Poisson-updating objects and
// backs both the mocksource command and the package tests.
package httpmirror
