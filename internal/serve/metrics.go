package serve

import "graphblas/internal/obs"

// latencyBuckets span 100µs–10s: cache-hit k-hop queries at the bottom,
// degraded PPR sweeps under load at the top.
var latencyBuckets = []float64{1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1, 5, 10}

// Serving-layer metrics, registered into the engine's default registry so
// the /metrics endpoint (obs.WriteText) exposes them alongside the engine
// counters they complement.
var (
	Requests = obs.NewCounterVec("graphblas_serve_requests_total",
		"HTTP requests completed, by route.", "route")
	Statuses = obs.NewCounterVec("graphblas_serve_responses_total",
		"HTTP responses, by status class (2xx/4xx/5xx).", "status")
	Latency = obs.NewHistogramVec("graphblas_serve_latency_seconds",
		"Request latency from admission to response, by route.", "route", latencyBuckets)

	Shed = obs.NewCounter("graphblas_serve_shed_total",
		"Requests rejected by admission control (queue over watermark or draining).")
	Inflight = obs.NewGauge("graphblas_serve_inflight",
		"Requests currently holding an admission slot.")
	AdmissionQueue = obs.NewGauge("graphblas_serve_admission_queue",
		"Requests waiting for an admission slot.")

	Retried = obs.NewCounter("graphblas_serve_retries_total",
		"Query attempts re-run after a transient engine error.")
	DegradedServed = obs.NewCounter("graphblas_serve_degraded_total",
		"Responses served with reduced quality (capped iterations) under load.")
	StaleServed = obs.NewCounter("graphblas_serve_stale_total",
		"Responses served from a previously pinned epoch because a fresh pin was unavailable.")
)
