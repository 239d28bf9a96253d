// Service and cancellation-plumbing benchmarks for PR7: verify-suite
// throughput through fvn serve with the result cache cold vs warm, and
// the cost of the context plumbing threaded through the hot loops.
package repro_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/netgraph"
	"repro/internal/serve"
)

// BenchmarkServeThroughput measures one full verify-suite job through
// the HTTP service. "uncached" disables result reuse per request, so
// every job re-proves the suite; "cached" backs the server with a cache
// file (without one there is no cross-request cache at all), warms it
// with one job and then serves every obligation from it — the
// steady-state cost of a resubmitted suite.
func BenchmarkServeThroughput(b *testing.B) {
	run := func(b *testing.B, body string, warm bool) {
		opts := serve.Options{MaxConcurrent: 8}
		if warm {
			opts.CachePath = filepath.Join(b.TempDir(), "cache.jsonl")
		}
		s, err := serve.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Shutdown(context.Background())
		post := func() {
			resp, err := http.Post(ts.URL+"/verify", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		if warm {
			post()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post()
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, `{"cache": false}`, false) })
	b.Run("cached", func(b *testing.B) { run(b, `{}`, true) })
}

// BenchmarkCtxPlumbing measures a full simulation run through the
// context-aware event loop: "background" is the disabled path (no
// Done channel, the per-event gate is a nil check), "cancellable" a
// live context that never fires. The two must allocate identically —
// internal/dist's TestCtxBackgroundPathNoExtraAllocs pins that.
func BenchmarkCtxPlumbing(b *testing.B) {
	for _, bc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"background", func() (context.Context, context.CancelFunc) {
			return context.Background(), func() {}
		}},
		{"cancellable", func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p, err := core.PathVector()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net, err := p.Execute(netgraph.Ring(5), dist.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := bc.ctx()
				r, err := net.RunCtx(ctx)
				cancel()
				if err != nil || !r.Converged {
					b.Fatalf("run: converged=%v err=%v", r.Converged, err)
				}
			}
		})
	}
}
