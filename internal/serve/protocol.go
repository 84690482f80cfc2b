// Package serve implements jfserve, the long-lived route-oracle daemon:
// warm paths.DBs keyed by (graph fingerprint | selector config | seed)
// are served over a newline-delimited JSON request/response protocol on
// a Unix socket or TCP listener. The wire protocol — framing, every
// request/response type, error codes and compatibility rules — is
// specified in docs/SERVICE.md; a third-party client needs only that
// document. The in-repo Go client lives in internal/serve/client.
//
// This file holds the wire types. They are plain structs marshaled with
// encoding/json, one object per line; field names below are the wire
// names. Any change here must be reflected in docs/SERVICE.md and, if
// incompatible, bump ProtocolVersion. The operations themselves — wire
// name, binary opcode, binary request fields and handler — are declared
// once, in opTable (ops.go).
package serve

import "repro/internal/telemetry"

// ProtocolVersion is the wire protocol version. Every request and
// response carries it in "v"; the server rejects other versions with
// CodeBadVersion, so old clients fail loudly instead of misparsing.
const ProtocolVersion = 1

// MaxFrameBytes bounds one request line. A longer line gets a
// CodeFrameTooLarge error and the connection is closed (the frame
// boundary is unrecoverable once the limit is hit mid-line).
const MaxFrameBytes = 1 << 20

// MaxBatchPairs bounds the pairs of one routes-batch request.
const MaxBatchPairs = 8192

// MaxSweepPairs bounds the total pairs of one sweep request (generated
// or explicit). Larger workloads submit several sweeps.
const MaxSweepPairs = 1 << 20

// DefaultSweepChunk is the sweep result-frame size when the request
// leaves "chunk" unset.
const DefaultSweepChunk = 1024

// Request operations.
const (
	OpRoute       = "route"
	OpRoutesBatch = "routes-batch"
	OpEstimate    = "estimate"
	OpTopoLoad    = "topo-load"
	OpTopoEvict   = "topo-evict"
	OpStats       = "stats"
	// OpHealth reports readiness and resilience counters. It is exempt
	// from load shedding and the handler timeout, so probes get an
	// answer from an overloaded server — that is its whole point.
	OpHealth = "health"
	// OpSweep submits a long route sweep whose results stream back as
	// separate chunk frames (all carrying the sweep request's id) that
	// may interleave with this connection's other responses, so a long
	// sweep never head-of-line blocks lookups. See docs/SERVICE.md
	// "Streaming sweeps".
	OpSweep = "sweep"
)

// Test operations, registered only when Options.EnableTestOps is set
// (the chaos harness, internal/serve/chaos). A production daemon
// answers unknown-op. They are deliberately absent from docs/SERVICE.md
// beyond a footnote: not part of the public protocol.
const (
	// OpTestSleep holds an in-flight slot for the request's sleep_ms
	// milliseconds, to make shedding and handler timeouts deterministic
	// in tests.
	OpTestSleep = "test-sleep"
	// OpTestCrash panics inside the handler, to exercise per-request
	// panic recovery.
	OpTestCrash = "test-crash"
)

// Error codes (docs/SERVICE.md lists the full semantics of each).
const (
	// CodeBadJSON: the line is not a valid JSON object.
	CodeBadJSON = "bad-json"
	// CodeBadVersion: "v" is missing or not ProtocolVersion.
	CodeBadVersion = "bad-version"
	// CodeBadRequest: a required field is missing or malformed.
	CodeBadRequest = "bad-request"
	// CodeUnknownOp: "op" names no operation of this version.
	CodeUnknownOp = "unknown-op"
	// CodeUnknownTopo: "topo" names no currently loaded topology.
	CodeUnknownTopo = "unknown-topo"
	// CodeBadPair: src/dst is out of range or src == dst.
	CodeBadPair = "bad-pair"
	// CodePairNotFound: the pair is valid but absent from the loaded
	// (possibly pair-sampled) path DB.
	CodePairNotFound = "pair-not-found"
	// CodeNoPath: the pair is stored but has no usable path.
	CodeNoPath = "no-path"
	// CodeBatchTooLarge: a routes-batch request exceeds MaxBatchPairs.
	CodeBatchTooLarge = "batch-too-large"
	// CodeFrameTooLarge: the request line exceeds MaxFrameBytes; the
	// connection is closed after this error.
	CodeFrameTooLarge = "frame-too-large"
	// CodeTopoLoad: topo-load failed (bad parameters or build error).
	CodeTopoLoad = "topo-load-failed"
	// CodeOverloaded: the server refused the request (or, with an empty
	// id, the whole connection) to shed load; back off and retry.
	CodeOverloaded = "overloaded"
	// CodeTimeout: the handler exceeded the server's per-request
	// timeout. The connection stays open; the request may or may not
	// have taken effect (route choices advance adaptive state), so only
	// idempotent requests should be retried.
	CodeTimeout = "timeout"
	// CodeInternal: the handler panicked. The panic is recovered and
	// counted, this error frame is the connection's last: the server
	// closes it (the stream's consistency is no longer trusted), while
	// all other connections keep serving.
	CodeInternal = "internal-error"
)

// Request is the envelope of every client frame. Op-specific fields are
// pointers or slices so "absent" is distinguishable from zero values.
type Request struct {
	// V is the protocol version (required, must be ProtocolVersion).
	V int `json:"v"`
	// ID is an opaque client-chosen tag echoed in the response.
	ID string `json:"id,omitempty"`
	// Op selects the operation.
	Op string `json:"op"`

	// Topo is the topology key (route, routes-batch, estimate,
	// topo-evict), as returned by topo-load.
	Topo string `json:"topo,omitempty"`
	// Src and Dst are switch ids (route, estimate).
	Src *int32 `json:"src,omitempty"`
	Dst *int32 `json:"dst,omitempty"`
	// Pairs holds [src, dst] switch-id pairs (routes-batch).
	Pairs [][2]int32 `json:"pairs,omitempty"`
	// Params configures topo-load.
	Params *TopoParams `json:"params,omitempty"`
	// Sweep configures a sweep request.
	Sweep *SweepParams `json:"sweep,omitempty"`
	// SleepMS is the test-sleep hold time in milliseconds (test ops
	// only; ignored — like any unknown field — by production servers).
	SleepMS int `json:"sleep_ms,omitempty"`
}

// SweepParams configures a sweep: either Count seeded random pairs or
// an explicit Pairs list (mutually exclusive), routed through the
// topology's mechanism and streamed back in chunks.
type SweepParams struct {
	// Count routes this many server-generated pairs: uniform random
	// (src, dst != src) draws from a stream seeded by Seed, so a sweep
	// is reproducible across runs and codecs. 1..MaxSweepPairs.
	Count int `json:"count,omitempty"`
	// Seed seeds the generated pair stream (only with Count).
	Seed uint64 `json:"seed,omitempty"`
	// Chunk is the number of results per streamed chunk frame
	// (default DefaultSweepChunk, max MaxBatchPairs).
	Chunk int `json:"chunk,omitempty"`
	// Pairs is the explicit [src, dst] list to sweep instead of a
	// generated stream.
	Pairs [][2]int32 `json:"pairs,omitempty"`
}

// TopoParams configures a topo-load request. Zero values select the
// documented defaults, so {"topo":"small"} is a complete request.
type TopoParams struct {
	// Topo names a paper topology: small, medium or large. Empty
	// selects custom N/X/Y parameters instead.
	Topo string `json:"topo,omitempty"`
	// N, X, Y are the RRG parameters when Topo is empty.
	N int `json:"n,omitempty"`
	X int `json:"x,omitempty"`
	Y int `json:"y,omitempty"`
	// Selector is the path-selection scheme: KSP, rKSP, EDKSP or rEDKSP
	// (default rEDKSP).
	Selector string `json:"selector,omitempty"`
	// K is the number of paths per pair (default 8).
	K int `json:"k,omitempty"`
	// Seed is the experiment seed (default 1). The RRG construction
	// seed and the per-selector path-DB seed derive from it exactly as
	// the experiment binaries' -seed does (internal/seeds), so the
	// daemon serves the same graph instance jfnet/jfflit/jfapp run on
	// and hits the path cache jftopo -warm-paths populated.
	Seed uint64 `json:"seed,omitempty"`
	// TopoSample is the topology sample index within the seed
	// (default 0), matching the experiments' i-th RRG instance.
	TopoSample int `json:"topo_sample,omitempty"`
	// Mechanism is the routing mechanism answering route requests
	// (default ksp-adaptive).
	Mechanism string `json:"mechanism,omitempty"`
	// Estimator is the load estimator the mechanism reads: zero, hops
	// or link-load (default link-load).
	Estimator string `json:"estimator,omitempty"`
	// PairSample bounds the stored pairs: 0 stores all ordered pairs,
	// n > 0 stores a seeded random sample of n pairs (lookups outside
	// the sample answer pair-not-found).
	PairSample int `json:"pair_sample,omitempty"`
}

// Response is the envelope of every server frame. Exactly one payload
// field is set on success, matching the request's op.
type Response struct {
	V  int    `json:"v"`
	ID string `json:"id,omitempty"`
	// OK is false when Error is set.
	OK    bool       `json:"ok"`
	Error *ErrorInfo `json:"error,omitempty"`

	Route    *RouteResult    `json:"route,omitempty"`
	Batch    *BatchResult    `json:"batch,omitempty"`
	Estimate *EstimateResult `json:"estimate,omitempty"`
	Topo     *TopoResult     `json:"topo,omitempty"`
	Stats    *StatsResult    `json:"stats,omitempty"`
	Health   *HealthResult   `json:"health,omitempty"`

	// Sweep acknowledges an accepted sweep; SweepChunk and SweepDone
	// are the frames streamed after it, all carrying the sweep
	// request's id (docs/SERVICE.md "Streaming sweeps").
	Sweep      *SweepStart `json:"sweep,omitempty"`
	SweepChunk *SweepChunk `json:"sweep_chunk,omitempty"`
	SweepDone  *SweepDone  `json:"sweep_done,omitempty"`
}

// SweepStart acknowledges an accepted sweep before any results stream.
type SweepStart struct {
	TotalPairs int `json:"total_pairs"`
	ChunkSize  int `json:"chunk_size"`
	// Chunks is the number of chunk frames that will follow.
	Chunks int `json:"chunks"`
}

// SweepChunk carries one streamed slice of sweep results. Entries align
// with the sweep's pair order (generated or explicit), offset by
// Seq × the acknowledged chunk size.
type SweepChunk struct {
	// Seq numbers the chunk, 0-based and strictly increasing.
	Seq int `json:"seq"`
	// Routed counts this chunk's entries carrying a route.
	Routed  int          `json:"routed"`
	Entries []BatchEntry `json:"entries"`
}

// SweepDone is the sweep's final frame: totals over every chunk.
type SweepDone struct {
	Chunks int   `json:"chunks"`
	Routed int64 `json:"routed"`
	// Failed counts entries that answered a per-pair error code.
	Failed int64 `json:"failed"`
}

// ErrorInfo carries a machine-readable code and a human-readable
// message. Codes are stable API; messages are not.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// RouteResult is one chosen path.
type RouteResult struct {
	// Path is the switch id sequence, source first.
	Path []int32 `json:"path"`
	// Index is the chosen candidate's index in the pair's stored set,
	// or -1 for paths outside it (UGAL's composed detours).
	Index int `json:"index"`
	// Hops is len(Path) - 1.
	Hops int `json:"hops"`
}

// BatchEntry is one routes-batch element: a route or a per-pair error
// code (one bad pair does not fail the rest of the batch).
type BatchEntry struct {
	Route *RouteResult `json:"route,omitempty"`
	// Err is an error code (CodeBadPair, CodePairNotFound, CodeNoPath)
	// when the pair could not be routed, empty otherwise.
	Err string `json:"err,omitempty"`
}

// BatchResult answers routes-batch; Entries is index-aligned with the
// request's Pairs.
type BatchResult struct {
	Entries []BatchEntry `json:"entries"`
	// Routed counts the entries carrying a route.
	Routed int `json:"routed"`
}

// EstimateResult answers estimate: path-set quality of the pair plus
// the isolated-flow Equation-1 throughput estimate (1.0 = the pair's k
// sub-flows are fully link-disjoint and move at full terminal speed;
// lower values mean the set shares links with itself).
type EstimateResult struct {
	Candidates int     `json:"candidates"`
	MinHops    int     `json:"min_hops"`
	AvgHops    float64 `json:"avg_hops"`
	// MaxShare is the maximum number of the pair's paths crossing one
	// undirected link (Table IV's per-pair quantity; 1 = disjoint).
	MaxShare   int     `json:"max_share"`
	Throughput float64 `json:"throughput"`
}

// TopoResult answers topo-load.
type TopoResult struct {
	// Key identifies the loaded topology in later requests:
	// "<graph fingerprint>|<selector canonical form>|<seed>".
	Key string `json:"key"`
	// AlreadyLoaded reports that the key was already resident; the
	// existing DB was kept and no build ran.
	AlreadyLoaded bool `json:"already_loaded,omitempty"`
	Switches      int  `json:"switches"`
	Terminals     int  `json:"terminals"`
	// Pairs is the number of stored switch pairs.
	Pairs int `json:"pairs"`
	K     int `json:"k"`
	// CacheHit reports the DB was streamed from the on-disk path cache
	// rather than built (always false without -path-cache).
	CacheHit bool `json:"cache_hit,omitempty"`
	// LoadSeconds is the wall time of the build or cache load.
	LoadSeconds float64 `json:"load_seconds"`
}

// TopoInfo describes one loaded topology in a stats response.
type TopoInfo struct {
	Key       string `json:"key"`
	Switches  int    `json:"switches"`
	Pairs     int    `json:"pairs"`
	K         int    `json:"k"`
	Mechanism string `json:"mechanism"`
	Estimator string `json:"estimator"`
}

// HealthResult answers health: readiness plus the resilience counters a
// load balancer or operator needs to decide whether the daemon is
// degrading (shedding, timing out) or failing (panicking). Counters are
// cumulative since process start.
type HealthResult struct {
	// Ready is true while the server accepts and serves requests; false
	// once shutdown has begun (draining).
	Ready         bool    `json:"ready"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Topos is the number of warm (resident) topologies.
	Topos int `json:"topos"`
	// Conns is the number of open connections; MaxConns the configured
	// limit (0 = unlimited).
	Conns    int `json:"conns"`
	MaxConns int `json:"max_conns,omitempty"`
	// InFlight is the number of requests currently executing;
	// MaxInFlight the configured limit (0 = unlimited).
	InFlight    int `json:"in_flight"`
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// Shed counts requests refused with the overloaded code; ConnShed
	// counts connections refused at the connection limit.
	Shed     int64 `json:"shed"`
	ConnShed int64 `json:"conn_shed"`
	// Panics counts recovered handler panics (each poisoned exactly one
	// connection).
	Panics int64 `json:"panics"`
	// HandlerTimeouts counts requests answered with the timeout code;
	// IOTimeouts counts connections closed on a read/write deadline.
	HandlerTimeouts int64 `json:"handler_timeouts"`
	IOTimeouts      int64 `json:"io_timeouts"`
	// SweepsActive is the number of sweeps currently streaming;
	// MaxSweeps the configured limit (0 = unlimited).
	SweepsActive int `json:"sweeps_active"`
	MaxSweeps    int `json:"max_sweeps,omitempty"`
}

// LatencySummary reports service-latency percentiles in microseconds
// (time from frame decode to response encode, per request).
type LatencySummary struct {
	Count      int64   `json:"count"`
	MeanMicros float64 `json:"mean_us"`
	P50Micros  float64 `json:"p50_us"`
	P90Micros  float64 `json:"p90_us"`
	P99Micros  float64 `json:"p99_us"`
}

// StatsResult answers stats.
type StatsResult struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts every request handled (including failed ones).
	Requests int64 `json:"requests"`
	// RouteLookups counts routed pairs (route counts 1, routes-batch
	// counts its routed entries).
	RouteLookups int64 `json:"route_lookups"`
	// QPS is Requests / UptimeSeconds.
	QPS float64 `json:"qps"`
	// PerOp breaks Requests down by operation name.
	PerOp map[string]int64 `json:"per_op"`
	// Latency summarizes per-request service time.
	Latency LatencySummary `json:"latency"`
	// Topos lists the resident topologies.
	Topos []TopoInfo `json:"topos"`
}

// latencySummaryOf converts a telemetry summary (microsecond buckets)
// to the wire shape.
func latencySummaryOf(s telemetry.Summary) LatencySummary {
	return LatencySummary{
		Count:      s.Count,
		MeanMicros: s.Mean,
		P50Micros:  s.P50,
		P90Micros:  s.P90,
		P99Micros:  s.P99,
	}
}

// errResponse builds a failure response.
func errResponse(id, code, message string) Response {
	return Response{V: ProtocolVersion, ID: id, OK: false,
		Error: &ErrorInfo{Code: code, Message: message}}
}

// okResponse builds a success envelope; the caller fills the payload.
func okResponse(id string) Response {
	return Response{V: ProtocolVersion, ID: id, OK: true}
}
