package obs

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Stage indexes one timed stage of a request's life. The order is
// frozen: it is the X-Timing pair order and the CSV column order, so
// offline analysis can rely on position.
type Stage int

const (
	// StageQueue is time spent waiting for an execution slot (the
	// MaxSims admission semaphore) before the engine could start.
	StageQueue Stage = iota
	// StageCoalesce is time spent waiting on another caller's identical
	// in-flight execution instead of running one.
	StageCoalesce
	// StageExecute is the engine run itself.
	StageExecute
	// StageEncode is result-document encoding.
	StageEncode
	// StageStore is the durable-store append of the encoded body.
	StageStore
	// NumStages is the number of timed stages (array sizing).
	NumStages
)

// StageNames are the wire spellings, indexed by Stage.
var StageNames = [NumStages]string{"queue", "coalesce", "execute", "encode", "store"}

// TimingRecord is the flat per-request timing record threaded through
// the service: one duration per stage plus the request total, with the
// endpoint and cache outcome for labelling. It is a plain value type —
// stamping a stage is a field store, no locks, no allocation — sized
// to live on the handler's stack.
type TimingRecord struct {
	// Start is the wall-clock arrival of the request (CSV only; stage
	// math uses monotonic durations).
	Start time.Time
	// Endpoint is "run" or "matrix".
	Endpoint string
	// Outcome is the cache outcome: "hit", "store", "miss", "coalesced"
	// or "error".
	Outcome string
	// D holds the per-stage durations; stages that did not occur stay 0
	// (a cache hit has only Total).
	D [NumStages]time.Duration
	// Total is the whole request duration, decode to last byte handed
	// to the response writer.
	Total time.Duration
}

// micros renders a duration as integer microseconds (floor). Stage
// durations are reported in µs: ns is noise at engine-run scale and ms
// loses the cache-hit path entirely.
func micros(d time.Duration) int64 {
	if d < 0 {
		return 0
	}
	return d.Microseconds()
}

// AppendHeaderValue appends the X-Timing header value to buf: the
// fixed-order compact `stage=µs` pairs, comma-separated, ending with
// total — e.g. `queue=0,coalesce=0,execute=105432,encode=210,store=88,total=105844`.
// Appending into a caller-reused buffer keeps the hot path's only
// unavoidable allocation the final string conversion the header map
// needs.
func (r *TimingRecord) AppendHeaderValue(buf []byte) []byte {
	for s := Stage(0); s < NumStages; s++ {
		buf = append(buf, StageNames[s]...)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, micros(r.D[s]), 10)
		buf = append(buf, ',')
	}
	buf = append(buf, "total="...)
	return strconv.AppendInt(buf, micros(r.Total), 10)
}

// ParseHeaderValue parses an X-Timing header value back into stage
// microseconds keyed by stage name (plus "total"). Tests use it to
// assert the header round-trips.
func ParseHeaderValue(v string) (map[string]int64, error) {
	out := map[string]int64{}
	for _, pair := range strings.Split(v, ",") {
		name, num, ok := strings.Cut(pair, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("obs: malformed X-Timing pair %q", pair)
		}
		n, err := strconv.ParseInt(num, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: malformed X-Timing pair %q: %w", pair, err)
		}
		out[name] = n
	}
	return out, nil
}

// CSVHeader is the column header of the timing log, matching
// AppendCSV's field order.
const CSVHeader = "start_unix_ns,endpoint,outcome,queue_us,coalesce_us,execute_us,encode_us,store_us,total_us"

// AppendCSV appends one CSV record (no trailing newline). The fields
// are all numeric or registry-owned identifiers, so no quoting is ever
// needed.
func (r *TimingRecord) AppendCSV(buf []byte) []byte {
	buf = strconv.AppendInt(buf, r.Start.UnixNano(), 10)
	buf = append(buf, ',')
	buf = append(buf, r.Endpoint...)
	buf = append(buf, ',')
	buf = append(buf, r.Outcome...)
	for s := Stage(0); s < NumStages; s++ {
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, micros(r.D[s]), 10)
	}
	buf = append(buf, ',')
	return strconv.AppendInt(buf, micros(r.Total), 10)
}
