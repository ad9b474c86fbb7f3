// Package hierarchy chains mirrors into multi-level topologies:
// source → regional → edge, each level refreshing from the one above
// it over the per-object HTTP source protocol an origin speaks (a
// mirror does not serve the origin's optional batch GET /objects).
//
// Two pieces make a chain more than a pair of independent mirrors:
//
//   - MirrorSource adapts an upstream mirror into the Source contract a
//     downstream mirror refreshes from, while eavesdropping on the
//     upstream's degradation headers (X-Mirror-Mode,
//     X-Staleness-Periods). A downstream mirror whose upstream is
//     itself source-degraded enters source-degraded mode too and
//     serves compounded staleness — the end client always learns the
//     true distance to the origin.
//
//   - SplitBudget divides a global refresh budget across the levels.
//     End-to-end freshness is the product of per-level freshness
//     factors (internal/freshness.ChainFreshness), so the levels
//     compete for budget: a regional mirror that refreshes too rarely
//     caps what any amount of edge polling can deliver. SplitBudget
//     water-fills each level against the other's marginal end-to-end
//     value and searches the cross-level share, so the split lands
//     where the marginal period of bandwidth is worth the same
//     wherever it is spent.
//
// The closed form this optimizes against is cross-validated by the
// chained discrete-event engine in internal/sim.
package hierarchy
