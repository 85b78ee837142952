package optsync

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"

	"optsync/internal/gwc"
	"optsync/internal/obs"
)

// WithTracing enables every node's structured event tracer: protocol
// transitions (speculation start/commit/abort, suppressed writes,
// fence/unfence, reign changes, ...) are captured in a per-node bounded
// drop-oldest ring readable via TraceEvents. capacity is the per-node
// ring size (0 means the default, 4096 events); the exact per-type
// counters in Metrics() are unbounded either way. The cost is a few
// atomic stores per protocol transition — never a lock, never an
// allocation on the hot paths.
func WithTracing(capacity int) Option {
	return optionFunc(func(o *options) {
		o.traced = true
		o.traceCap = capacity
	})
}

// WithMetricsAddr serves the cluster's metrics over HTTP on addr
// (":0" picks a free port; see Cluster.MetricsAddr for the bound
// address): GET /metrics returns a plain-text rendering of the merged
// latency histograms and event counts, and /debug/vars exposes them as
// expvar JSON. The option implies WithTracing's event capture, so the
// endpoint's event counters are live.
func WithMetricsAddr(addr string) Option {
	return optionFunc(func(o *options) { o.metricsAddr = addr })
}

// Metrics returns the cluster-wide observability snapshot: every node's
// latency histograms (lock acquire, speculative section, rollback cost,
// batch flush, quorum wait, failover) merged into one distribution per
// metric, plus the per-event-type counts and — when the cluster runs a
// transport that counts (TCP, with or without fault injection) — the
// transport counters (frames, writev batches, decode errors, link
// resets, outbox drops; in-process, how many pushes ran in place and how
// many queued). Histograms record always; event counts are
// zero unless tracing is on (WithTracing or WithMetricsAddr).
func (c *Cluster) Metrics() obs.MetricsSnapshot {
	var s obs.MetricsSnapshot
	for _, n := range c.nodes {
		s.Merge(n.Metrics().Snapshot())
	}
	if ts, ok := c.net.(interface{ TransportStats() obs.TransportStats }); ok {
		s.Transport = ts.TransportStats()
	}
	return s
}

// NodeMetrics returns node i's own metrics — per-node histograms and
// the node's tracer, for callers that want to enable or read tracing on
// a single node rather than cluster-wide.
func (c *Cluster) NodeMetrics(i int) (*obs.Metrics, error) {
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("optsync: node %d out of range [0,%d): %w", i, len(c.nodes), ErrNotMember)
	}
	return c.nodes[i].Metrics(), nil
}

// TraceEvents returns the buffered trace events of every node, merged
// and ordered by timestamp — the cluster's recent protocol history, for
// test-failure dumps and cmd/optsim. Empty unless tracing is enabled.
func (c *Cluster) TraceEvents() []obs.Event {
	var all []obs.Event
	for _, n := range c.nodes {
		all = append(all, n.Metrics().Trace.Snapshot()...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}

// MetricsAddr reports the address the metrics HTTP server is bound to,
// or "" if the cluster was built without WithMetricsAddr.
func (c *Cluster) MetricsAddr() string {
	if c.metricsLn == nil {
		return ""
	}
	return c.metricsLn.Addr().String()
}

// metricsSeq disambiguates expvar names when one process hosts several
// clusters (expvar registrations are global and permanent).
var metricsSeq atomic.Int64

// startMetricsServer binds the metrics endpoint and publishes the
// cluster under expvar. Called from NewCluster before any workload
// runs, so a bind failure aborts construction.
func (c *Cluster) startMetricsServer(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	expvar.Publish(fmt.Sprintf("optsync.cluster%d", metricsSeq.Add(1)),
		expvar.Func(func() any { return c.Metrics() }))
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeMetrics(w, c.Metrics(), len(c.nodes))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness: non-200 while any node cannot serve writes — a
		// fenced root, or a member detached from its reign (electing,
		// rejoining, resyncing) — so orchestrators stop routing here
		// instead of piling requests onto a node that must drop them.
		health := c.Health()
		serving := true
		for _, h := range health {
			if !h.Serving() {
				serving = false
				break
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if !serving {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		if err := json.NewEncoder(w).Encode(struct {
			Serving bool         `json:"serving"`
			Nodes   []gwc.Health `json:"nodes"`
		}{serving, health}); err != nil {
			// Connection-level failure; nothing useful to do.
			_ = err
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	c.metricsLn = ln
	c.metricsSrv = &http.Server{Handler: mux}
	go func() { _ = c.metricsSrv.Serve(ln) }()
	return nil
}

// WriteMetrics renders the cluster's merged metrics to w in the same
// plain-text format the /metrics endpoint serves — for CLI tools and
// test-failure dumps that want the tables without an HTTP round trip.
func (c *Cluster) WriteMetrics(w io.Writer) {
	writeMetrics(w, c.Metrics(), len(c.nodes))
}

// writeMetrics renders a merged snapshot as the plain-text format the
// /metrics endpoint and cmd/optsim share: one summary line per
// histogram, a bucket bar chart for the populated ones, and the
// non-zero event counts.
func writeMetrics(w io.Writer, s obs.MetricsSnapshot, nodes int) {
	fmt.Fprintf(w, "# optsync metrics, merged over %d node(s)\n", nodes)
	for id := obs.HistID(0); id < obs.NumHists; id++ {
		h := s.Hists[id]
		fmt.Fprintf(w, "%-14s %s\n", id, h)
		if h.Count > 0 {
			for _, line := range strings.Split(strings.TrimRight(h.Bars(), "\n"), "\n") {
				fmt.Fprintf(w, "  %s\n", line)
			}
		}
	}
	fmt.Fprintf(w, "gauges:\n")
	for id := obs.GaugeID(0); id < obs.NumGauges; id++ {
		g := s.Gauges[id]
		fmt.Fprintf(w, "  %-16s %d (max %d)\n", id, g.Value, g.Max)
	}
	fmt.Fprintf(w, "events:\n")
	for t := obs.EventType(0); t < obs.NumEventTypes; t++ {
		if n := s.Events[t]; n > 0 {
			fmt.Fprintf(w, "  %-16s %d\n", t, n)
		}
	}
	if t := s.Transport; t != (obs.TransportStats{}) {
		fmt.Fprintf(w, "transport:\n")
		fmt.Fprintf(w, "  frames_sent      %d\n", t.FramesSent)
		fmt.Fprintf(w, "  bytes_sent       %d\n", t.BytesSent)
		fmt.Fprintf(w, "  writevs          %d\n", t.Writevs)
		if t.Writevs > 0 {
			fmt.Fprintf(w, "  frames_per_writev %.2f\n", float64(t.FramesSent)/float64(t.Writevs))
		}
		fmt.Fprintf(w, "  frames_recv      %d\n", t.FramesRecv)
		fmt.Fprintf(w, "  decode_errors    %d\n", t.DecodeErrors)
		fmt.Fprintf(w, "  conn_resets      %d\n", t.ConnResets)
		fmt.Fprintf(w, "  send_drops       %d\n", t.SendDrops)
		fmt.Fprintf(w, "  dials            %d\n", t.Dials)
		fmt.Fprintf(w, "  links_adopted    %d\n", t.LinksAdopted)
		fmt.Fprintf(w, "  pushed_in_place  %d\n", t.PushedInPlace)
		fmt.Fprintf(w, "  pushed_queued    %d\n", t.PushedQueued)
		fmt.Fprintf(w, "  pushed_declined  %d\n", t.PushedDeclined)
	}
}
