// Package floorplan models the 2-D geometry of an MPSoC die: rectangular
// functional blocks, their placement, and the adjacency relation between
// them. The thermal package builds its RC network from this geometry:
// every block becomes a thermal node, and lateral heat spreading between
// two blocks is proportional to the length of their shared edge.
//
// Dimensions are in metres. The package also ships the concrete floorplan
// used throughout the reproduction: the 3-core streaming MPSoC of the
// paper's Figure 5 (three RISC tiles, each with an I-cache and a D-cache,
// plus a shared on-chip memory).
package floorplan

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// BlockKind classifies a functional block. The power model uses the kind
// to select the right component power figures (paper Table 1).
type BlockKind int

const (
	// KindCore is a RISC processor tile.
	KindCore BlockKind = iota
	// KindICache is an instruction cache.
	KindICache
	// KindDCache is a data cache.
	KindDCache
	// KindSharedMem is the on-chip shared memory.
	KindSharedMem
	// KindInterconnect is bus / NoC area.
	KindInterconnect
	// KindOther is any block with no modelled activity (pads, glue).
	KindOther
)

// String returns a human-readable name for the kind.
func (k BlockKind) String() string {
	switch k {
	case KindCore:
		return "core"
	case KindICache:
		return "icache"
	case KindDCache:
		return "dcache"
	case KindSharedMem:
		return "sharedmem"
	case KindInterconnect:
		return "interconnect"
	default:
		return "other"
	}
}

// Block is an axis-aligned rectangle on the die.
type Block struct {
	// Name uniquely identifies the block within a floorplan.
	Name string
	// Kind selects the power model for the block.
	Kind BlockKind
	// CoreID associates the block with a processor tile (caches carry
	// the ID of their core). Blocks not tied to a core use -1.
	CoreID int
	// X, Y is the lower-left corner in metres.
	X, Y float64
	// W, H are width and height in metres.
	W, H float64
}

// Area returns the block area in square metres.
func (b Block) Area() float64 { return b.W * b.H }

// CenterX returns the x coordinate of the block centre.
func (b Block) CenterX() float64 { return b.X + b.W/2 }

// CenterY returns the y coordinate of the block centre.
func (b Block) CenterY() float64 { return b.Y + b.H/2 }

// Adjacency records that two blocks share a boundary segment.
type Adjacency struct {
	// A and B are indices into Floorplan.Blocks, with A < B.
	A, B int
	// SharedEdge is the length in metres of the common boundary.
	SharedEdge float64
	// Distance is the centre-to-centre distance in metres.
	Distance float64
}

// Floorplan is a validated set of placed blocks plus the derived
// adjacency relation.
type Floorplan struct {
	Blocks      []Block
	Adjacencies []Adjacency
}

// ErrEmpty is returned when a floorplan has no blocks.
var ErrEmpty = errors.New("floorplan: no blocks")

// geomEps absorbs floating-point noise when testing block contact and
// overlap (1 nm at die scale).
const geomEps = 1e-9

// New validates the block set and computes adjacency. It returns an error
// if blocks overlap, have non-finite geometry or non-positive dimensions,
// or share a name; of several overlapping pairs it names the first in
// (i, j) index order.
//
// Overlap and adjacency come from one sort-and-sweep (Cohen et al.,
// I-COLLIDE): blocks are ordered by left edge, and each block is paired
// only with the blocks after it whose left edge comes within geomEps of
// its right edge, since no other pair can overlap or share an edge. A
// die of b blocks, each of whose x-extent meets k others, costs
// O(b log b + b·k) instead of O(b²): a tiled die's shared-memory strip
// spans every tile, so it meets all of them, but each tile meets only
// its neighbours. Each visited pair is tested in (i, j) index order, so
// the adjacencies are bit for bit the ones a pairwise scan computes.
func New(blocks []Block) (*Floorplan, error) {
	if len(blocks) == 0 {
		return nil, ErrEmpty
	}
	byName := make(map[string]int, len(blocks))
	for i, b := range blocks {
		if b.Name == "" {
			return nil, fmt.Errorf("floorplan: block %d has empty name", i)
		}
		if !finite(b.X) || !finite(b.Y) || !finite(b.W) || !finite(b.H) {
			return nil, fmt.Errorf("floorplan: block %q has non-finite geometry x=%g y=%g w=%g h=%g", b.Name, b.X, b.Y, b.W, b.H)
		}
		if b.W <= 0 || b.H <= 0 {
			return nil, fmt.Errorf("floorplan: block %q has non-positive size %gx%g", b.Name, b.W, b.H)
		}
		if j, dup := byName[b.Name]; dup {
			return nil, fmt.Errorf("floorplan: duplicate block name %q (indices %d and %d)", b.Name, j, i)
		}
		byName[b.Name] = i
	}
	fp := &Floorplan{Blocks: append([]Block(nil), blocks...)}
	if i, j, ok := fp.sweep(); ok {
		return nil, fmt.Errorf("floorplan: blocks %q and %q overlap", blocks[i].Name, blocks[j].Name)
	}
	return fp, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// sweep sets fp.Adjacencies, sorted by (A, B), and reports the first
// overlapping pair (i, j), i < j, in index order, if there is one.
func (fp *Floorplan) sweep() (oi, oj int, overlap bool) {
	bs := fp.Blocks
	order := make([]int, len(bs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(p, q int) int { return cmp.Compare(bs[p].X, bs[q].X) })
	for s, p := range order {
		right := bs[p].X + bs[p].W
		for _, q := range order[s+1:] {
			// Left edges ascend, so once q starts more than geomEps
			// past p's right edge, every later block does too.
			if right-bs[q].X <= -geomEps {
				break
			}
			i, j := min(p, q), max(p, q)
			a, b := bs[i], bs[j]
			if overlapArea(a, b) > geomEps {
				if !overlap || i < oi || (i == oi && j < oj) {
					oi, oj, overlap = i, j, true
				}
				continue
			}
			e := sharedEdge(a, b)
			if e <= 0 {
				continue
			}
			dx := a.CenterX() - b.CenterX()
			dy := a.CenterY() - b.CenterY()
			fp.Adjacencies = append(fp.Adjacencies, Adjacency{
				A: i, B: j,
				SharedEdge: e,
				Distance:   math.Hypot(dx, dy),
			})
		}
	}
	slices.SortFunc(fp.Adjacencies, func(x, y Adjacency) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
	return oi, oj, overlap
}

// MustNew is New, panicking on error. Intended for package-level
// floorplan constructors whose geometry is fixed at compile time.
func MustNew(blocks []Block) *Floorplan {
	fp, err := New(blocks)
	if err != nil {
		panic(err)
	}
	return fp
}

// overlapArea returns the interior intersection area of two blocks.
func overlapArea(a, b Block) float64 {
	w := math.Min(a.X+a.W, b.X+b.W) - math.Max(a.X, b.X)
	h := math.Min(a.Y+a.H, b.Y+b.H) - math.Max(a.Y, b.Y)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// sharedEdge returns the length of the boundary segment two blocks share,
// or 0 if they do not touch.
func sharedEdge(a, b Block) float64 {
	// Touching vertically (a right edge meets b left edge or vice versa).
	if math.Abs((a.X+a.W)-b.X) < geomEps || math.Abs((b.X+b.W)-a.X) < geomEps {
		lo := math.Max(a.Y, b.Y)
		hi := math.Min(a.Y+a.H, b.Y+b.H)
		if hi-lo > geomEps {
			return hi - lo
		}
	}
	// Touching horizontally.
	if math.Abs((a.Y+a.H)-b.Y) < geomEps || math.Abs((b.Y+b.H)-a.Y) < geomEps {
		lo := math.Max(a.X, b.X)
		hi := math.Min(a.X+a.W, b.X+b.W)
		if hi-lo > geomEps {
			return hi - lo
		}
	}
	return 0
}

// BlocksOfCore returns the indices of all blocks belonging to the given
// core tile (core + caches), in floorplan order.
func (fp *Floorplan) BlocksOfCore(coreID int) []int {
	var out []int
	for i, b := range fp.Blocks {
		if b.CoreID == coreID {
			out = append(out, i)
		}
	}
	return out
}

// NumCores returns the number of KindCore blocks.
func (fp *Floorplan) NumCores() int {
	n := 0
	for _, b := range fp.Blocks {
		if b.Kind == KindCore {
			n++
		}
	}
	return n
}

// DieExtent returns the bounding box (x, y, w, h) of the whole floorplan.
func (fp *Floorplan) DieExtent() (x, y, w, h float64) {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, b := range fp.Blocks {
		minX = math.Min(minX, b.X)
		minY = math.Min(minY, b.Y)
		maxX = math.Max(maxX, b.X+b.W)
		maxY = math.Max(maxY, b.Y+b.H)
	}
	return minX, minY, maxX - minX, maxY - minY
}
