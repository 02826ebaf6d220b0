package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkPredictIngest measures the chunk-ingest hot path — request
// decode through predict — by driving the handler directly (no client
// or TCP stack), so allocs/op is the server-side cost per chunk. The
// gzip variant exercises the pooled gzip.Reader, the plain variant the
// pooled chunk buffer alone.
func BenchmarkPredictIngest(b *testing.B) {
	for _, tc := range []struct {
		name string
		gz   bool
	}{{"plain", false}, {"gzip", true}} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := New(testLimits(), nil)
			if err != nil {
				b.Fatal(err)
			}
			h := s.Handler()

			body, err := json.Marshal(SessionRequest{ID: "b", Class: "cond", Spec: "gshare:budget=16KB"})
			if err != nil {
				b.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated {
				b.Fatalf("create session: status %d", rec.Code)
			}

			chunk := encodeRecords(b, testTrace(b, 4096).Records)
			if tc.gz {
				var zbuf bytes.Buffer
				zw := gzip.NewWriter(&zbuf)
				if _, err := zw.Write(chunk); err != nil {
					b.Fatal(err)
				}
				if err := zw.Close(); err != nil {
					b.Fatal(err)
				}
				chunk = zbuf.Bytes()
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/sessions/b/chunks", bytes.NewReader(chunk))
				if tc.gz {
					req.Header.Set("Content-Encoding", "gzip")
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("chunk: status %d", rec.Code)
				}
			}
		})
	}
}

// BenchmarkServeSpill measures the snapshot layer on the request path:
// MaxSessions 1, a spill directory, and two sessions taking chunks in
// turn, so every request rehydrates its session, evicts the other one,
// replays and writes through. "once" is the server as it runs: the
// evicted session was written through by its last chunk, so its
// eviction writes nothing. "rewrite" forgets that before every request,
// so each eviction captures, fsyncs and renames the state again (the
// cost before spills were generation-tracked).
func BenchmarkServeSpill(b *testing.B) {
	for _, rewrite := range []bool{true, false} {
		name := "once"
		if rewrite {
			name = "rewrite"
		}
		b.Run(name, func(b *testing.B) {
			limits := testLimits()
			limits.MaxSessions = 1
			s, err := New(limits, nil)
			if err != nil {
				b.Fatal(err)
			}
			s.SetSpillDir(b.TempDir())
			h := s.Handler()
			ids := []string{"a", "b"}
			for _, id := range ids {
				body, err := json.Marshal(SessionRequest{ID: id, Class: "cond", Spec: "flp:budget=16KB,fixed=8"})
				if err != nil {
					b.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body)))
				if rec.Code != http.StatusCreated {
					b.Fatalf("create session %s: status %d", id, rec.Code)
				}
			}
			chunk := encodeRecords(b, testTrace(b, 4096).Records)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rewrite {
					for _, sess := range s.reg.snapshot() {
						sess.spillMu.Lock()
						sess.spilledGen = noGen
						sess.spillMu.Unlock()
					}
				}
				// Session b was created last, so a is on disk first.
				req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+ids[i%2]+"/chunks", bytes.NewReader(chunk))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("chunk: status %d: %s", rec.Code, rec.Body)
				}
			}
			b.StopTimer()
			if n := s.snapsRestored.Load(); n != int64(b.N) {
				b.Fatalf("snapshots_restored = %d over %d requests, want one rehydrate each", n, b.N)
			}
		})
	}
}
