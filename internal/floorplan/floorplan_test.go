package floorplan

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil); err != ErrEmpty {
		t.Fatalf("New(nil) err = %v, want ErrEmpty", err)
	}
}

func TestNewRejectsBadBlocks(t *testing.T) {
	cases := []struct {
		name   string
		blocks []Block
		substr string
	}{
		{
			name:   "empty name",
			blocks: []Block{{Name: "", W: 1, H: 1}},
			substr: "empty name",
		},
		{
			name:   "zero width",
			blocks: []Block{{Name: "a", W: 0, H: 1}},
			substr: "non-positive size",
		},
		{
			name:   "negative height",
			blocks: []Block{{Name: "a", W: 1, H: -2}},
			substr: "non-positive size",
		},
		{
			name: "duplicate name",
			blocks: []Block{
				{Name: "a", W: 1, H: 1},
				{Name: "a", X: 5, W: 1, H: 1},
			},
			substr: "duplicate",
		},
		{
			name: "overlap",
			blocks: []Block{
				{Name: "a", W: 2, H: 2},
				{Name: "b", X: 1, Y: 1, W: 2, H: 2},
			},
			substr: "overlap",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.blocks)
			if err == nil {
				t.Fatalf("New(%v) succeeded, want error containing %q", tc.blocks, tc.substr)
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("New error = %q, want substring %q", err, tc.substr)
			}
		})
	}
}

func TestTouchingBlocksDoNotOverlap(t *testing.T) {
	fp, err := New([]Block{
		{Name: "a", X: 0, Y: 0, W: 1, H: 1},
		{Name: "b", X: 1, Y: 0, W: 1, H: 1},
	})
	if err != nil {
		t.Fatalf("touching blocks rejected: %v", err)
	}
	if len(fp.Adjacencies) != 1 {
		t.Fatalf("adjacencies = %d, want 1", len(fp.Adjacencies))
	}
	adj := fp.Adjacencies[0]
	if adj.SharedEdge != 1 {
		t.Errorf("shared edge = %g, want 1", adj.SharedEdge)
	}
	if math.Abs(adj.Distance-1) > 1e-12 {
		t.Errorf("distance = %g, want 1", adj.Distance)
	}
}

func TestPartialSharedEdge(t *testing.T) {
	fp, err := New([]Block{
		{Name: "a", X: 0, Y: 0, W: 1, H: 2},
		{Name: "b", X: 1, Y: 1, W: 1, H: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Adjacencies) != 1 {
		t.Fatalf("adjacencies = %d, want 1", len(fp.Adjacencies))
	}
	if got := fp.Adjacencies[0].SharedEdge; math.Abs(got-1) > 1e-12 {
		t.Errorf("shared edge = %g, want 1", got)
	}
}

func TestCornerContactIsNotAdjacent(t *testing.T) {
	fp, err := New([]Block{
		{Name: "a", X: 0, Y: 0, W: 1, H: 1},
		{Name: "b", X: 1, Y: 1, W: 1, H: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Adjacencies) != 0 {
		t.Fatalf("corner contact produced %d adjacencies, want 0", len(fp.Adjacencies))
	}
}

func TestSeparatedBlocksNotAdjacent(t *testing.T) {
	fp, err := New([]Block{
		{Name: "a", X: 0, Y: 0, W: 1, H: 1},
		{Name: "b", X: 3, Y: 0, W: 1, H: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Adjacencies) != 0 {
		t.Fatalf("separated blocks adjacency = %d, want 0", len(fp.Adjacencies))
	}
}

func TestIndexAndBlockLookup(t *testing.T) {
	fp := Default3Core()
	i, ok := fp.Index("core2")
	if !ok {
		t.Fatal("core2 not found")
	}
	if fp.Blocks[i].Name != "core2" {
		t.Errorf("Index returned wrong block %q", fp.Blocks[i].Name)
	}
	if _, ok := fp.Index("nosuch"); ok {
		t.Error("Index found nonexistent block")
	}
	b := fp.Block("sharedmem")
	if b.Kind != KindSharedMem {
		t.Errorf("sharedmem kind = %v", b.Kind)
	}
	defer func() {
		if recover() == nil {
			t.Error("Block(unknown) did not panic")
		}
	}()
	fp.Block("nosuch")
}

func TestDefault3CoreStructure(t *testing.T) {
	fp := Default3Core()
	if got := fp.NumCores(); got != 3 {
		t.Fatalf("NumCores = %d, want 3", got)
	}
	if got := len(fp.Blocks); got != 10 {
		t.Fatalf("blocks = %d, want 10 (3x(core+i$+d$) + sharedmem)", got)
	}
	cores := fp.CoreBlocks()
	if len(cores) != 3 {
		t.Fatalf("CoreBlocks = %d, want 3", len(cores))
	}
	for i, ci := range cores {
		if fp.Blocks[ci].CoreID != i {
			t.Errorf("core block %d has CoreID %d, want %d", ci, fp.Blocks[ci].CoreID, i)
		}
	}
	// Every tile owns exactly three blocks.
	for id := 0; id < 3; id++ {
		if got := len(fp.BlocksOfCore(id)); got != 3 {
			t.Errorf("BlocksOfCore(%d) = %d blocks, want 3", id, got)
		}
	}
	// The shared memory strip must touch all three tiles (it is the main
	// lateral heat-spreading path in the thermal model).
	smi, _ := fp.Index("sharedmem")
	touches := map[int]bool{}
	for _, adj := range fp.Adjacencies {
		if adj.A == smi {
			touches[fp.Blocks[adj.B].CoreID] = true
		}
		if adj.B == smi {
			touches[fp.Blocks[adj.A].CoreID] = true
		}
	}
	for id := 0; id < 3; id++ {
		if !touches[id] {
			t.Errorf("sharedmem does not touch tile %d", id)
		}
	}
}

func TestDefault3CoreChainTopology(t *testing.T) {
	fp := Default3Core()
	// core1 must reach core2's tile via the caches between them, and the
	// icache of each tile must touch its own core.
	for i := 1; i <= 3; i++ {
		ci, _ := fp.Index(blockName("core", i))
		ii, _ := fp.Index(blockName("icache", i))
		if !adjacent(fp, ci, ii) {
			t.Errorf("core%d not adjacent to icache%d", i, i)
		}
	}
	// icache1/dcache1 are adjacent to core2 (tile boundary).
	c2, _ := fp.Index("core2")
	i1, _ := fp.Index("icache1")
	d1, _ := fp.Index("dcache1")
	if !adjacent(fp, c2, i1) || !adjacent(fp, c2, d1) {
		t.Error("tile 1 caches not adjacent to core2: lateral chain broken")
	}
	// core1 and core3 are not directly adjacent.
	c1, _ := fp.Index("core1")
	c3, _ := fp.Index("core3")
	if adjacent(fp, c1, c3) {
		t.Error("core1 adjacent to core3, want separation")
	}
}

func adjacent(fp *Floorplan, a, b int) bool {
	if a > b {
		a, b = b, a
	}
	for _, adj := range fp.Adjacencies {
		if adj.A == a && adj.B == b {
			return true
		}
	}
	return false
}

func blockName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

func TestDieExtentAndArea(t *testing.T) {
	fp := Default3Core()
	x, y, w, h := fp.DieExtent()
	if x != 0 || y != 0 {
		t.Errorf("die origin = (%g,%g), want (0,0)", x, y)
	}
	if math.Abs(w-6*mm) > 1e-12 {
		t.Errorf("die width = %g, want %g", w, 6*mm)
	}
	if math.Abs(h-2*mm) > 1e-12 {
		t.Errorf("die height = %g, want %g", h, 2*mm)
	}
	// Blocks tile the die exactly in this floorplan.
	if got, want := fp.TotalArea(), w*h; math.Abs(got-want) > 1e-12 {
		t.Errorf("total block area = %g, want %g (die fully tiled)", got, want)
	}
}

func TestStreamingMPSoCScales(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		fp := StreamingMPSoC(n)
		if fp.NumCores() != n {
			t.Errorf("StreamingMPSoC(%d).NumCores = %d", n, fp.NumCores())
		}
		if len(fp.Blocks) != 3*n+1 {
			t.Errorf("StreamingMPSoC(%d) blocks = %d, want %d", n, len(fp.Blocks), 3*n+1)
		}
	}
}

func TestStreamingMPSoCPanicsOnZeroCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("StreamingMPSoC(0) did not panic")
		}
	}()
	StreamingMPSoC(0)
}

// Property: adjacency is symmetric in construction (A < B held) and the
// shared edge length never exceeds the smaller block perimeter dimension.
func TestAdjacencyProperties(t *testing.T) {
	fp := Default3Core()
	for _, adj := range fp.Adjacencies {
		if adj.A >= adj.B {
			t.Errorf("adjacency not ordered: %+v", adj)
		}
		a, b := fp.Blocks[adj.A], fp.Blocks[adj.B]
		maxEdge := math.Max(math.Max(a.W, a.H), math.Max(b.W, b.H))
		if adj.SharedEdge > maxEdge+1e-12 {
			t.Errorf("shared edge %g longer than any block side %g", adj.SharedEdge, maxEdge)
		}
		if adj.Distance <= 0 {
			t.Errorf("non-positive centre distance %g", adj.Distance)
		}
	}
}

// Property-based: overlapArea is symmetric and non-negative for arbitrary
// block pairs.
func TestOverlapAreaProperties(t *testing.T) {
	f := func(ax, ay, bx, by uint8, aw, ah, bw, bh uint8) bool {
		a := Block{Name: "a", X: float64(ax), Y: float64(ay), W: float64(aw%16) + 1, H: float64(ah%16) + 1}
		b := Block{Name: "b", X: float64(bx), Y: float64(by), W: float64(bw%16) + 1, H: float64(bh%16) + 1}
		o1, o2 := overlapArea(a, b), overlapArea(b, a)
		if o1 < 0 || o2 < 0 {
			return false
		}
		return math.Abs(o1-o2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property-based: sharedEdge is symmetric.
func TestSharedEdgeSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by uint8, aw, ah, bw, bh uint8) bool {
		a := Block{X: float64(ax % 8), Y: float64(ay % 8), W: float64(aw%8) + 1, H: float64(ah%8) + 1}
		b := Block{X: float64(bx % 8), Y: float64(by % 8), W: float64(bw%8) + 1, H: float64(bh%8) + 1}
		return math.Abs(sharedEdge(a, b)-sharedEdge(b, a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockKindString(t *testing.T) {
	kinds := map[BlockKind]string{
		KindCore:         "core",
		KindICache:       "icache",
		KindDCache:       "dcache",
		KindSharedMem:    "sharedmem",
		KindInterconnect: "interconnect",
		KindOther:        "other",
		BlockKind(99):    "other",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("BlockKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestNewRejectsNonFiniteGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    Block
	}{
		{"NaN x", Block{Name: "bad", X: math.NaN(), W: 1, H: 1}},
		{"+Inf y", Block{Name: "bad", Y: math.Inf(1), W: 1, H: 1}},
		{"NaN width", Block{Name: "bad", W: math.NaN(), H: 1}},
		{"+Inf width", Block{Name: "bad", W: math.Inf(1), H: 1}},
		{"-Inf height", Block{Name: "bad", W: 1, H: math.Inf(-1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New([]Block{{Name: "ok", X: 5, W: 1, H: 1}, tc.b})
			if err == nil || !strings.Contains(err.Error(), `block "bad" has non-finite geometry`) {
				t.Fatalf("New = %v, want a non-finite geometry error naming block \"bad\"", err)
			}
		})
	}
}

// pairwiseOracle is the original O(b²) construction, kept as the
// reference New's sort-and-sweep must match: the overlap check over
// every (i, j), i < j, then the adjacency scan in the same order. It
// assumes blocks already passed New's per-block validation.
func pairwiseOracle(blocks []Block) ([]Adjacency, error) {
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			if overlapArea(blocks[i], blocks[j]) > geomEps {
				return nil, fmt.Errorf("floorplan: blocks %q and %q overlap", blocks[i].Name, blocks[j].Name)
			}
		}
	}
	var adj []Adjacency
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			e := sharedEdge(blocks[i], blocks[j])
			if e <= 0 {
				continue
			}
			dx := blocks[i].CenterX() - blocks[j].CenterX()
			dy := blocks[i].CenterY() - blocks[j].CenterY()
			adj = append(adj, Adjacency{A: i, B: j, SharedEdge: e, Distance: math.Hypot(dx, dy)})
		}
	}
	return adj, nil
}

// checkOracle fails t unless New(blocks) and pairwiseOracle(blocks)
// agree: the same error text, or adjacencies with identical indices
// and float bits.
func checkOracle(t *testing.T, label string, blocks []Block) {
	t.Helper()
	want, wantErr := pairwiseOracle(blocks)
	fp, err := New(blocks)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: New error = %v, oracle %v", label, err, wantErr)
	}
	if err != nil {
		return
	}
	if len(fp.Adjacencies) != len(want) {
		t.Fatalf("%s: %d adjacencies, oracle %d", label, len(fp.Adjacencies), len(want))
	}
	for k, g := range fp.Adjacencies {
		w := want[k]
		if g.A != w.A || g.B != w.B ||
			math.Float64bits(g.SharedEdge) != math.Float64bits(w.SharedEdge) ||
			math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
			t.Fatalf("%s: adjacency %d = %+v, oracle %+v", label, k, g, w)
		}
	}
}

// randomGridBlocks places up to 40 rectangles on a 12×12 grid of 0.5 mm
// cells in shuffled order: mostly a non-overlapping packing, so blocks
// share whole edges, partial edges, left edges and corners, with some
// edges moved by less than geomEps (still touching) or by more (a gap
// or a sliver of overlap), and with probability 1/3 a few extra blocks
// dropped on top of others.
func randomGridBlocks(rng *rand.Rand) []Block {
	const cells, unit = 12, 0.5e-3
	var used [cells][cells]bool
	jitter := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return (rng.Float64() - 0.5) * geomEps // within eps
		case 1:
			return (rng.Float64() - 0.5) * 8 * geomEps // beyond eps
		}
		return 0
	}
	var blocks []Block
	add := func(gx, gy, gw, gh int) {
		blocks = append(blocks, Block{
			Name: fmt.Sprintf("b%d", len(blocks)),
			X:    float64(gx)*unit + jitter(), Y: float64(gy)*unit + jitter(),
			W: float64(gw)*unit + jitter(), H: float64(gh)*unit + jitter(),
		})
	}
	for try := 0; try < 200 && len(blocks) < 40; try++ {
		gx, gy := rng.Intn(cells), rng.Intn(cells)
		gw, gh := 1+rng.Intn(min(4, cells-gx)), 1+rng.Intn(min(4, cells-gy))
		free := true
		for x := gx; x < gx+gw; x++ {
			for y := gy; y < gy+gh; y++ {
				free = free && !used[x][y]
			}
		}
		if !free {
			continue
		}
		for x := gx; x < gx+gw; x++ {
			for y := gy; y < gy+gh; y++ {
				used[x][y] = true
			}
		}
		add(gx, gy, gw, gh)
	}
	if rng.Intn(3) == 0 {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			gx, gy := rng.Intn(cells-1), rng.Intn(cells-1)
			add(gx, gy, 1+rng.Intn(2), 1+rng.Intn(2))
		}
	}
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	return blocks
}

// New's sort-and-sweep must reproduce the pairwise construction: the
// same adjacencies bit for bit, and the same overlap error (the first
// overlapping pair in (i, j) order), on random grid floorplans, on every
// tiled die up to 256 cores, and on mixed-scale heterogeneous dies.
func TestNewMatchesPairwiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	overlaps := 0
	for trial := 0; trial < 400; trial++ {
		blocks := randomGridBlocks(rng)
		if _, err := pairwiseOracle(blocks); err != nil {
			overlaps++
		}
		checkOracle(t, fmt.Sprintf("grid trial %d", trial), blocks)
	}
	if overlaps == 0 || overlaps == 400 {
		t.Fatalf("%d of 400 grid trials overlap: the generator no longer covers both outcomes", overlaps)
	}
	for n := 1; n <= 256; n++ {
		checkOracle(t, fmt.Sprintf("StreamingMPSoC(%d)", n), StreamingMPSoC(n).Blocks)
	}
	scales := []float64{0.5, 0.75, 1, 1.25, 1.5, 2}
	for trial := 0; trial < 50; trial++ {
		runs := make([]TileRun, 1+rng.Intn(4))
		for k := range runs {
			runs[k] = TileRun{Count: 1 + rng.Intn(6), Scale: scales[rng.Intn(len(scales))]}
		}
		fp, err := HeteroMPSoC(runs)
		if err != nil {
			t.Fatalf("HeteroMPSoC(%v): %v", runs, err)
		}
		checkOracle(t, fmt.Sprintf("HeteroMPSoC(%v)", runs), fp.Blocks)
	}
}

// BenchmarkFloorplanManycore256 measures the floorplan of the
// manycore-256 die (769 blocks): validation, overlap check and
// adjacency, which every run that instantiates the scenario pays.
func BenchmarkFloorplanManycore256(b *testing.B) {
	for b.Loop() {
		StreamingMPSoC(256)
	}
}
