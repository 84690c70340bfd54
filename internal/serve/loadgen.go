package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"
)

// LoadSpec describes one deterministic load run: a fixed request count dealt
// to a fixed worker pool, each worker drawing sources and query kinds from
// its own seeded stream, with one writer goroutine interleaving ingest
// batches. Two runs with the same spec issue the same requests in the same
// per-worker order; only timing differs.
type LoadSpec struct {
	Seed     uint64
	Requests int           // total query requests across all workers
	Workers  int           // concurrent client goroutines
	N        int           // vertex-space bound for drawn sources
	Timeout  time.Duration // per-request ?timeout= hint (0: server default)

	// Query mix: a draw in [0,1) lands in khop / ppr / stats by these
	// cumulative fractions (khop below KHopFrac, ppr below KHopFrac+PPRFrac,
	// stats above).
	KHopFrac, PPRFrac float64

	// IngestEvery issues one write batch per that many queries completed
	// (0 disables the writer); BatchSize edges per batch.
	IngestEvery int
	BatchSize   int
}

// LoadResult aggregates one run. Counts come from the responses themselves
// (status codes and resilience headers), so the result is self-contained
// even when several runs share the process-global metrics registry.
type LoadResult struct {
	Requests  int     `json:"requests"`
	OK        int     `json:"ok"`
	Shed      int     `json:"shed"`      // 503: admission/backpressure/drain
	Timeout   int     `json:"timeout"`   // 504: deadline crossed mid-query
	Errors    int     `json:"errors"`    // anything else non-2xx
	Stale     int     `json:"stale"`     // 200s served from a prior epoch
	Degraded  int     `json:"degraded"`  // 200s with reduced quality
	Retried   int     `json:"retried"`   // 200s that needed >1 attempt
	Ingested  int     `json:"ingested"`  // write batches accepted
	Throttled int     `json:"throttled"` // write batches rejected by backpressure
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	QPS       float64 `json:"qps"`
	Seconds   float64 `json:"seconds"`
}

// RunLoad drives the server in-process (no sockets: requests go straight
// into ServeHTTP) and tallies the outcome. In-process drive keeps the
// harness deterministic and the latency numbers about the engine, not the
// loopback stack.
func RunLoad(s *Server, spec LoadSpec) LoadResult {
	if spec.Workers < 1 {
		spec.Workers = 1
	}
	if spec.KHopFrac <= 0 && spec.PPRFrac <= 0 {
		spec.KHopFrac, spec.PPRFrac = 0.6, 0.3
	}
	var (
		mu        sync.Mutex
		res       LoadResult
		latencies []float64
	)
	start := time.Now()

	var wg sync.WaitGroup
	queriesDone := make(chan struct{}, spec.Requests)
	for w := 0; w < spec.Workers; w++ {
		share := spec.Requests / spec.Workers
		if w < spec.Requests%spec.Workers {
			share++
		}
		wg.Add(1)
		go func(worker, share int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(spec.Seed) + int64(worker)*7919))
			for q := 0; q < share; q++ {
				src := rng.Intn(spec.N)
				var url string
				switch draw := rng.Float64(); {
				case draw < spec.KHopFrac:
					url = fmt.Sprintf("/query/khop?src=%d&k=%d", src, 1+rng.Intn(3))
				case draw < spec.KHopFrac+spec.PPRFrac:
					url = fmt.Sprintf("/query/ppr?src=%d&k=10", src)
				default:
					url = "/stats?x=1"
				}
				if spec.Timeout > 0 {
					url += "&timeout=" + spec.Timeout.String()
				}
				req := httptest.NewRequest(http.MethodGet, url, nil)
				rec := httptest.NewRecorder()
				t0 := time.Now()
				s.ServeHTTP(rec, req)
				dt := time.Since(t0).Seconds() * 1e3

				mu.Lock()
				res.Requests++
				latencies = append(latencies, dt)
				switch rec.Code {
				case http.StatusOK:
					res.OK++
					if rec.Header().Get("X-Graphblas-Stale") == "true" {
						res.Stale++
					}
					if rec.Header().Get("X-Graphblas-Degraded") == "true" {
						res.Degraded++
					}
					if rec.Header().Get("X-Graphblas-Attempts") != "" {
						res.Retried++
					}
				case http.StatusServiceUnavailable:
					res.Shed++
				case http.StatusGatewayTimeout:
					res.Timeout++
				default:
					res.Errors++
				}
				mu.Unlock()
				select {
				case queriesDone <- struct{}{}:
				default:
				}
			}
		}(w, share)
	}

	writerStop := make(chan struct{})
	var writerWG sync.WaitGroup
	if spec.IngestEvery > 0 {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(spec.Seed) ^ 0x5eed))
			pending := 0
			for {
				select {
				case <-writerStop:
					return
				case <-queriesDone:
					pending++
					if pending < spec.IngestEvery {
						continue
					}
					pending = 0
					body := ingestJSON(rng, spec.N, spec.BatchSize)
					req := httptest.NewRequest(http.MethodPost, "/ingest", body)
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					mu.Lock()
					if rec.Code == http.StatusOK {
						res.Ingested++
					} else {
						res.Throttled++
					}
					mu.Unlock()
				}
			}
		}()
	}

	wg.Wait()
	close(writerStop)
	writerWG.Wait()

	res.Seconds = time.Since(start).Seconds()
	if res.Seconds > 0 {
		res.QPS = float64(res.Requests) / res.Seconds
	}
	sort.Float64s(latencies)
	res.P50Ms = percentile(latencies, 0.50)
	res.P99Ms = percentile(latencies, 0.99)
	return res
}

// ingestJSON builds one random batch body.
func ingestJSON(rng *rand.Rand, n, size int) *strings.Reader {
	if size < 1 {
		size = 8
	}
	var sb strings.Builder
	//grblint:ignore swallowederr strings.Builder writes are documented to always return a nil error
	sb.WriteString(`{"inserts":[`)
	for e := 0; e < size; e++ {
		if e > 0 {
			//grblint:ignore swallowederr strings.Builder writes are documented to always return a nil error
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d,1]", rng.Intn(n), rng.Intn(n))
	}
	//grblint:ignore swallowederr strings.Builder writes are documented to always return a nil error
	sb.WriteString(`]}`)
	return strings.NewReader(sb.String())
}

// percentile returns the p-quantile of sorted xs (nearest-rank), 0 if empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(p * float64(len(xs)-1))
	return xs[i]
}
