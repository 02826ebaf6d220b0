package chaos

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
)

// healthPath is the one path the middleware never faults: liveness
// must reflect the process, not the fault schedule, or the
// coordinator's breaker probes and the two-strike prober would retire
// perfectly healthy workers.
const healthPath = "/v1/healthz"

// Middleware wraps next in the injector's server-side faults. Each
// non-exempt request draws one decision block; 5xx bursts and stalls
// resolve before the handler runs, while resets and truncation let the
// handler produce its full response and then deliver only a prefix of
// it — a reset additionally aborts the connection so the client sees a
// torn body rather than a short-but-valid one.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == healthPath {
			next.ServeHTTP(w, r)
			return
		}
		d := in.decideServer()
		if d.latency {
			if err := sleepCtx(r.Context(), in.spec.Latency); err != nil {
				return
			}
		}
		switch d.fault {
		case FaultBurst5xx:
			// A retryable envelope in the v1 error shape (kept in sync
			// by TestMiddlewareEnvelopeShape without importing serve).
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"code":%q,"message":"chaos: injected 5xx burst","retryable":true}`+"\n", "chaos-injected")
			return
		case FaultStall:
			if err := sleepCtx(r.Context(), in.spec.StallFor); err != nil {
				// The client gave up mid-stall; drop the request the way
				// a wedged server would.
				return
			}
			next.ServeHTTP(w, r)
			return
		case FaultReset, FaultTruncate:
			rec := &recorder{header: http.Header{}, status: http.StatusOK}
			next.ServeHTTP(rec, r)
			body := rec.buf.Bytes()
			cut := int(d.truncAt * float64(len(body)))
			if len(body) > 0 && cut >= len(body) {
				// Always leave at least one byte missing, or the fault
				// would deliver a complete response.
				cut = len(body) - 1
			}
			for k, vs := range rec.header {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			// Declare the full length, deliver a prefix: the client's
			// read ends in an unexpected EOF instead of a clean short
			// body.
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(rec.status)
			w.Write(body[:cut])
			if d.fault == FaultReset {
				// ErrAbortHandler is net/http's sanctioned way to kill
				// the connection from a handler; the server recovers it
				// without logging a crash, and the client sees the drop.
				panic(http.ErrAbortHandler)
			}
			return
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// recorder buffers a handler's response so the middleware can replay a
// prefix of it.
type recorder struct {
	header http.Header
	buf    bytes.Buffer
	status int
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(status int) { r.status = status }

func (r *recorder) Write(p []byte) (int, error) { return r.buf.Write(p) }
