// Package bus models the shared on-chip interconnect of the MPSoC: a
// single arbitration domain through which all inter-processor traffic
// (message queues in shared memory, migration state transfers) flows.
//
// The model is bandwidth-based with fair-share contention: n concurrent
// transfers each progress at bandwidth/n. This is what produces the
// paper's Figure 2 effect, where the task-recreation migration curve has
// a steeper slope than task-replication: recreation moves more bytes
// (code reload on top of state), so its transfers overlap more traffic
// and see more contention.
package bus

import (
	"errors"
	"fmt"

	"thermbal/internal/ckpt"
)

// Transfer is an in-flight bulk transfer on the bus.
type Transfer struct {
	id        int
	label     string
	remaining float64 // bytes left to move
	done      bool
}

// ID returns the transfer's unique handle.
func (t *Transfer) ID() int { return t.id }

// Label returns the diagnostic label.
func (t *Transfer) Label() string { return t.label }

// Done reports whether the transfer has completed.
func (t *Transfer) Done() bool { return t.done }

// Bus is a fair-share shared interconnect. It is advanced by the
// simulation clock via Advance and is not safe for concurrent use.
type Bus struct {
	bandwidth float64 // bytes/second aggregate
	overheadS float64 // fixed arbitration/setup latency charged per transfer

	next    int
	active  []*Transfer
	busyAcc float64 // accumulated busy seconds
}

// DefaultBandwidth is the effective middleware copy bandwidth used by
// the experiments (bytes/second). Migration copies are daemon-mediated
// (suspend, PCB bookkeeping, copy through the shared memory buffer,
// resume), so the effective rate is far below raw bus bandwidth: a
// 64 KB context freezes its task for ~120 ms (6 audio frames). This
// calibration makes an 11-frame queue the minimum that sustains
// migration at the paper's operating threshold (Section 5.2), as the
// paper reports.
const DefaultBandwidth = 550 << 10

// DefaultOverhead is the fixed per-transfer overhead (daemon signalling
// plus arbitration) in seconds.
const DefaultOverhead = 2e-3

// New creates an idle bus at DefaultBandwidth and DefaultOverhead.
func New() *Bus {
	return &Bus{bandwidth: DefaultBandwidth, overheadS: DefaultOverhead}
}

// ErrBadSize is returned for non-positive transfer sizes.
var ErrBadSize = errors.New("bus: transfer size must be positive")

// Start enqueues a transfer of size bytes and returns its handle.
// The fixed overhead is charged as extra bytes at current bandwidth so
// that a transfer's latency is overhead + size/share.
func (b *Bus) Start(label string, size float64) (*Transfer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w (got %g)", ErrBadSize, size)
	}
	t := &Transfer{
		id:        b.next,
		label:     label,
		remaining: size + b.overheadS*b.bandwidth,
	}
	b.next++
	b.active = append(b.active, t)
	return t, nil
}

// Advance progresses all active transfers by dt seconds of bus time,
// sharing bandwidth equally among active transfers (fair round-robin
// arbitration). Completed transfers are marked Done and removed.
func (b *Bus) Advance(dt float64) {
	if dt <= 0 || len(b.active) == 0 {
		return
	}
	remainingDT := dt
	for remainingDT > 1e-15 && len(b.active) > 0 {
		n := float64(len(b.active))
		share := b.bandwidth / n
		// Find the first transfer to finish within remainingDT.
		minT := remainingDT
		for _, t := range b.active {
			if need := t.remaining / share; need < minT {
				minT = need
			}
		}
		for _, t := range b.active {
			t.remaining -= share * minT
		}
		b.busyAcc += minT
		// Compact the active list.
		out := b.active[:0]
		for _, t := range b.active {
			if t.remaining <= 1e-9 {
				t.remaining = 0
				t.done = true
			} else {
				out = append(out, t)
			}
		}
		b.active = out
		remainingDT -= minT
	}
}

// Active returns the number of in-flight transfers.
func (b *Bus) Active() int { return len(b.active) }

// SafeTicks returns how many consecutive Advance(tick) calls are
// guaranteed to complete no transfer, for the simulation fast path. One
// whole tick of margin absorbs the per-tick rounding of the remaining
// counters. Returns a huge bound when the bus is idle.
func (b *Bus) SafeTicks(tick float64) int64 {
	if len(b.active) == 0 {
		return int64(1) << 40
	}
	share := b.bandwidth / float64(len(b.active))
	perTick := share * tick
	if perTick <= 0 {
		return 0
	}
	safe := int64(1) << 40
	for _, t := range b.active {
		if s := int64(t.remaining/perTick) - 1; s < safe {
			safe = s
		}
	}
	if safe < 0 {
		return 0
	}
	return safe
}

// AdvanceTicks replays k event-free ticks of bus time, performing
// exactly the arithmetic k sequential Advance(tick) calls would —
// bit-for-bit, including accumulation order — under the caller's
// guarantee (via SafeTicks) that no transfer completes and none starts.
func (b *Bus) AdvanceTicks(tick float64, k int64) {
	if len(b.active) == 0 || k <= 0 {
		return
	}
	share := b.bandwidth / float64(len(b.active))
	for ; k > 0; k-- {
		for _, t := range b.active {
			t.remaining -= share * tick
		}
		b.busyAcc += tick
	}
}

// Ckpt writes or reads the bus's mutable state: the transfer counter,
// the accumulators and every in-flight transfer. A restore makes new
// transfer handles; InFlight finds them by ID.
func (b *Bus) Ckpt(c *ckpt.Codec) {
	c.Int(&b.next)
	c.Float(&b.busyAcc)
	n := len(b.active)
	c.Count(&n)
	if c.Reading() {
		b.active = make([]*Transfer, n)
		for i := range b.active {
			b.active[i] = new(Transfer)
		}
	}
	for _, t := range b.active {
		t.Ckpt(c)
	}
}

// Ckpt writes or reads one transfer, in flight or not.
func (t *Transfer) Ckpt(c *ckpt.Codec) {
	c.Int(&t.id)
	c.String(&t.label)
	c.Float(&t.remaining)
	c.Bool(&t.done)
}

// InFlight returns the in-flight transfer with the given ID, or nil.
func (b *Bus) InFlight(id int) *Transfer {
	for _, t := range b.active {
		if t.id == id {
			return t
		}
	}
	return nil
}

// BusySeconds returns cumulative seconds the bus spent moving data.
func (b *Bus) BusySeconds() float64 { return b.busyAcc }

// LatencyEstimate returns the time a transfer of size bytes would take
// if it ran with the given number of concurrent competitors (including
// itself). Used by migration-cost estimators (paper Section 3.1: the
// policy filters requests on estimated cost).
func (b *Bus) LatencyEstimate(size float64, competitors int) float64 {
	if competitors < 1 {
		competitors = 1
	}
	share := b.bandwidth / float64(competitors)
	return b.overheadS + size/share
}
