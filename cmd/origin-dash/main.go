// Command origin-dash serves a live dashboard for simulator sweeps: it runs
// applications across processor counts with the virtual-time metrics sampler
// enabled and streams per-sample series and run progress to a single-file
// HTML dashboard over Server-Sent Events. Each finished run's series is also
// available as CSV, a saved run artifact (origin-diff input), and Prometheus
// text exposition.
//
//	origin-dash -addr :8080
//	open http://localhost:8080/
//
// Endpoints:
//
//	GET /                 the dashboard
//	GET /api/start?app=FFT&procs=4,8&scale=64[&scenario=mesh]  start a sweep
//	GET /api/runs         all runs as JSON
//	GET /api/events       SSE stream: "run" and "sample" events
//	GET /api/csv?run=N    one run's machine-sample series as CSV
//	GET /api/artifact?run=N  one run's artifact JSON (origin-diff input)
//	GET /metrics          Prometheus text exposition of the latest state
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"origin2000/internal/scenario"
)

func main() {
	var (
		addr  = flag.String("addr", "localhost:8080", "listen address")
		scale = flag.Int("scale", 64, "default problem/cache scale divisor for sweeps")
		scenF = flag.String("scenario", "", "default machine scenario for sweeps (preset name or spec .json); /api/start?scenario= overrides per sweep")
	)
	flag.Parse()

	spec, err := scenario.Load(*scenF)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	srv := newServer(*scale)
	srv.scenario = spec
	log.Printf("origin-dash listening on http://%s/", *addr)
	if err := http.ListenAndServe(*addr, srv.mux()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
