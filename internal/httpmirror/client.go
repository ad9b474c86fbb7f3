package httpmirror

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy bounds how a SourceClient rides out transient upstream
// failures. Every request gets a per-attempt timeout; 5xx responses,
// timeouts and connection errors are retried with exponential backoff
// plus full jitter, capped at MaxAttempts per call. 4xx responses and
// malformed payloads are permanent and never retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call (first attempt
	// included); 0 means 3. 1 disables retries.
	MaxAttempts int
	// Timeout bounds each individual attempt; 0 means 5s. While
	// seeding, one attempt covers one batch of objects.
	Timeout time.Duration
	// BaseBackoff is the delay before the first retry; 0 means 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means 2s.
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Timeout <= 0 {
		p.Timeout = 5 * time.Second
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// backoff returns the sleep before retry number n (n = 1 for the first
// retry): exponential growth with full jitter, capped at MaxBackoff.
func (p RetryPolicy) backoff(n int, rng *rand.Rand) time.Duration {
	d := p.BaseBackoff << uint(n-1)
	if d > p.MaxBackoff || d <= 0 { // <= 0 guards shift overflow
		d = p.MaxBackoff
	}
	return time.Duration(rng.Int63n(int64(d)) + 1)
}

// permanentError marks a failure that retrying cannot fix (4xx,
// malformed payload).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// statusError reports a non-200 upstream response; 5xx and 429 are
// retryable, everything else is permanent.
type statusError struct {
	code   int
	status string
}

func (e *statusError) Error() string { return "upstream returned " + e.status }

// SourceClient talks the source protocol against an upstream base URL.
// All calls are context-aware and retry transient failures per the
// client's RetryPolicy. It is safe for concurrent use.
type SourceClient struct {
	base   string
	http   *http.Client
	policy RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand

	retries  atomic.Int64 // attempts beyond the first, across all calls
	failures atomic.Int64 // calls that exhausted every attempt
}

// NewSourceClient creates a client for the given base URL (e.g.
// "http://origin:8080"). A nil client means a client with a transport
// of its own (see NewTransport), shared with no other client. It opens
// at most four connections to the origin, as many as seeding keeps
// fetches in flight. The cap covers every request through the client:
// a fifth concurrent request waits for a connection to free, so
// goroutines that need more in flight need clients of their own. The
// default RetryPolicy applies; use SetRetryPolicy to tune it.
func NewSourceClient(base string, client *http.Client) *SourceClient {
	if client == nil {
		client = &http.Client{Transport: NewTransport()}
	}
	return &SourceClient{
		base:   strings.TrimRight(base, "/"),
		http:   client,
		policy: RetryPolicy{}.withDefaults(),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// NewTransport returns a new transport, cloned from
// http.DefaultTransport, that keeps up to seedWorkers connections per
// host and opens no more: a request beyond that many waits for one to
// free. Through http.DefaultTransport, which keeps two idle,
// seedWorkers concurrent fetches would keep closing connections and
// dialing new ones. The per-host cap makes the count
// exact: without it, a request that finds no idle connection dials,
// may be handed one freed in the meantime, and the finished dial joins
// the pool as one connection too many.
func NewTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = seedWorkers
	t.MaxConnsPerHost = seedWorkers
	return t
}

// SetRetryPolicy replaces the client's retry policy (zero fields take
// defaults). Call before sharing the client across goroutines.
func (c *SourceClient) SetRetryPolicy(p RetryPolicy) { c.policy = p.withDefaults() }

// Retries returns how many retry attempts the client has made in total.
func (c *SourceClient) Retries() int64 { return c.retries.Load() }

// Failures returns how many calls exhausted every attempt.
func (c *SourceClient) Failures() int64 { return c.failures.Load() }

// CloseIdleConnections closes the client's idle connections to the
// origin, so a stopped mirror leaves none open; see
// http.Client.CloseIdleConnections.
func (c *SourceClient) CloseIdleConnections() { c.http.CloseIdleConnections() }

// retryable reports whether an attempt's failure is worth retrying.
func retryable(err error) bool {
	var perm *permanentError
	if errors.As(err, &perm) {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	// Connection errors, timeouts, and deadline expiry are transient;
	// the caller cancelling is not.
	return !errors.Is(err, context.Canceled)
}

// do runs one protocol call with per-attempt timeouts and retries.
func (c *SourceClient) do(ctx context.Context, attempt func(context.Context) error) error {
	var err error
	for try := 1; ; try++ {
		actx, cancel := context.WithTimeout(ctx, c.policy.Timeout)
		err = attempt(actx)
		cancel()
		if err == nil {
			return nil
		}
		if try >= c.policy.MaxAttempts || !retryable(err) || ctx.Err() != nil {
			c.failures.Add(1)
			return err
		}
		c.retries.Add(1)
		c.mu.Lock()
		sleep := c.policy.backoff(try, c.rng)
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			c.failures.Add(1)
			return err
		case <-time.After(sleep):
		}
	}
}

// get issues one GET/HEAD and checks the status code.
func (c *SourceClient) get(ctx context.Context, method, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return nil, &permanentError{err}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, &statusError{code: resp.StatusCode, status: resp.Status}
	}
	return resp, nil
}

// maxPresizedBody caps the allocation a response's Content-Length can
// ask for before any of the body has arrived. A longer declared body is
// read as it arrives and then copied to its exact size.
const maxPresizedBody = 1 << 20

// maxPresizedCatalog is maxPresizedBody for a catalog: at about 24
// bytes per object, a catalog of 10⁶ objects fits.
const maxPresizedCatalog = 32 << 20

// readBody reads a whole object body of declared length n (-1 when
// unknown) into a slice of exactly its length. The mirror holds each
// body for the copy's whole life, and io.ReadAll's buffer starts at
// 512 bytes and grows ahead of the data, so a small body kept as read
// would pin many times its size. A response body shorter than its
// Content-Length fails like any truncated read (transient).
func readBody(r io.Reader, n int64) ([]byte, error) {
	if n >= 0 && n <= maxPresizedBody {
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	b, err := io.ReadAll(r)
	if err != nil || len(b) == cap(b) {
		return b, err
	}
	exact := make([]byte, len(b))
	copy(exact, b)
	return exact, nil
}

// readAll reads a catalog body r to its end into a buffer presized for
// its declared length n (-1 when unknown), up to maxPresizedCatalog.
// The catalog is parsed and dropped, so it needs no exact-size copy.
func readAll(r io.Reader, n int64) ([]byte, error) {
	var buf bytes.Buffer
	if n >= 0 && n <= maxPresizedCatalog {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead free to meet EOF
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// Catalog fetches the upstream object list (see decodeCatalog). The
// body is read whole before it is decoded: a transfer that breaks off
// is retried like any connection error, and a body that does not
// decode is permanent.
func (c *SourceClient) Catalog(ctx context.Context) ([]CatalogEntry, error) {
	var entries []CatalogEntry
	err := c.do(ctx, func(ctx context.Context) error {
		resp, err := c.get(ctx, http.MethodGet, c.base+"/catalog")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := readAll(resp.Body, resp.ContentLength)
		if err != nil {
			return err // truncated body: transient
		}
		if entries, err = decodeCatalog(body); err != nil {
			return &permanentError{err}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("httpmirror: catalog: %w", err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("httpmirror: upstream catalog is empty")
	}
	return entries, nil
}

// Fetch downloads one object, returning its body and version.
func (c *SourceClient) Fetch(ctx context.Context, id int) (body []byte, version int, err error) {
	err = c.do(ctx, func(ctx context.Context) error {
		resp, err := c.get(ctx, http.MethodGet, fmt.Sprintf("%s/object/%d", c.base, id))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		v, err := strconv.Atoi(resp.Header.Get("X-Version"))
		if err != nil {
			return &permanentError{fmt.Errorf("bad X-Version %q", resp.Header.Get("X-Version"))}
		}
		b, err := readBody(resp.Body, resp.ContentLength)
		if err != nil {
			return err // truncated body: transient
		}
		body, version = b, v
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("httpmirror: fetch %d: %w", id, err)
	}
	return body, version, nil
}

// FetchBatch implements BatchSource with one GET /objects?ids=…,
// timed and retried as one call. A 404, 405 or 501, or a 200 of
// another Content-Type (a catch-all origin), is ErrBatchUnsupported.
// A response whose frames do not name ids in order, or that does not
// end right after the last one, is a permanent error.
func (c *SourceClient) FetchBatch(ctx context.Context, ids []int) (bodies [][]byte, versions []int, err error) {
	url := make([]byte, 0, len(c.base)+len("/objects?ids=")+8*len(ids))
	url = append(url, c.base...)
	url = append(url, "/objects?ids="...)
	for k, id := range ids {
		if k > 0 {
			url = append(url, ',')
		}
		url = strconv.AppendInt(url, int64(id), 10)
	}
	unsupported := false
	err = c.do(ctx, func(ctx context.Context) error {
		resp, err := c.get(ctx, http.MethodGet, string(url))
		var se *statusError
		if errors.As(err, &se) && (se.code == http.StatusNotFound || se.code == http.StatusMethodNotAllowed || se.code == http.StatusNotImplemented) {
			unsupported = true
			return nil
		}
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); mt != batchContentType {
			unsupported = true
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			return nil
		}
		body := &readErr{r: resp.Body}
		b, v, err := readFrames(body, ids)
		if err != nil {
			if body.err != nil {
				return body.err // the transfer broke off: transient
			}
			return &permanentError{err}
		}
		bodies, versions = b, v
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("httpmirror: fetch batch of %d: %w", len(ids), err)
	}
	if unsupported {
		return nil, nil, ErrBatchUnsupported
	}
	return bodies, versions, nil
}

// readErr records the first error other than io.EOF its reader
// returns, telling a transfer that broke off from a response that
// ended where its sender ended it.
type readErr struct {
	r   io.Reader
	err error
}

func (r *readErr) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if err != nil && err != io.EOF && r.err == nil {
		r.err = err
	}
	return n, err
}

// readFrames reads a GET /objects body: for each id, in order, the
// line "{id} {version} {len}\n" and then len body bytes, each read as
// readBody reads one, through one LimitedReader for the whole batch;
// then the end of the body.
func readFrames(r io.Reader, ids []int) ([][]byte, []int, error) {
	br := bufio.NewReader(r)
	frame := &io.LimitedReader{R: br}
	bodies := make([][]byte, len(ids))
	versions := make([]int, len(ids))
	for k, want := range ids {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return nil, nil, fmt.Errorf("frame %d of %d: %w", k, len(ids), err)
		}
		id, ver, size, ok := parseFrameHeader(line[:len(line)-1])
		if !ok {
			return nil, nil, fmt.Errorf("frame %d: malformed header %q", k, line)
		}
		if id != want {
			return nil, nil, fmt.Errorf("frame %d names object %d, want %d", k, id, want)
		}
		frame.N = int64(size)
		b, err := readBody(frame, int64(size))
		if err == nil && len(b) != size {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, nil, fmt.Errorf("frame %d body: %w", k, err)
		}
		bodies[k], versions[k] = b, ver
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			err = errors.New("bytes after the last frame")
		}
		return nil, nil, err
	}
	return bodies, versions, nil
}

// parseFrameHeader parses "{id} {version} {len}"; len is never
// negative.
func parseFrameHeader(line []byte) (id, version, size int, ok bool) {
	f1, rest, ok1 := bytes.Cut(line, []byte{' '})
	f2, f3, ok2 := bytes.Cut(rest, []byte{' '})
	id, err1 := strconv.Atoi(string(f1))
	version, err2 := strconv.Atoi(string(f2))
	size, err3 := strconv.Atoi(string(f3))
	return id, version, size, ok1 && ok2 && err1 == nil && err2 == nil && err3 == nil && size >= 0
}

// FetchIfNewer implements ConditionalSource: one conditional GET with
// the caller's last-seen version in X-If-Version. An upstream that
// still holds that version answers 304 with no body (notModified true,
// version echoing the current one); any newer version comes back as a
// full 200. Against an origin that ignores the condition this behaves
// exactly like Fetch — the caller detects that by a 200 carrying the
// version it already has.
func (c *SourceClient) FetchIfNewer(ctx context.Context, id, have int) (body []byte, version int, notModified bool, err error) {
	err = c.do(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/object/%d", c.base, id), nil)
		if err != nil {
			return &permanentError{err}
		}
		req.Header.Set("X-If-Version", strconv.Itoa(have))
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			return &statusError{code: resp.StatusCode, status: resp.Status}
		}
		v, err := strconv.Atoi(resp.Header.Get("X-Version"))
		if err != nil {
			return &permanentError{fmt.Errorf("bad X-Version %q", resp.Header.Get("X-Version"))}
		}
		if resp.StatusCode == http.StatusNotModified {
			body, version, notModified = nil, v, true
			return nil
		}
		b, err := readBody(resp.Body, resp.ContentLength)
		if err != nil {
			return err // truncated body: transient
		}
		body, version, notModified = b, v, false
		return nil
	})
	if err != nil {
		return nil, 0, false, fmt.Errorf("httpmirror: conditional fetch %d: %w", id, err)
	}
	return body, version, notModified, nil
}

// Version checks an object's current version without transferring the
// body (HEAD) — the cheap change poll.
func (c *SourceClient) Version(ctx context.Context, id int) (int, error) {
	var version int
	err := c.do(ctx, func(ctx context.Context) error {
		resp, err := c.get(ctx, http.MethodHead, fmt.Sprintf("%s/object/%d", c.base, id))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		v, err := strconv.Atoi(resp.Header.Get("X-Version"))
		if err != nil {
			return &permanentError{fmt.Errorf("bad X-Version %q", resp.Header.Get("X-Version"))}
		}
		version = v
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("httpmirror: head %d: %w", id, err)
	}
	return version, nil
}
