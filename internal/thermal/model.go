package thermal

import (
	"fmt"
	"math"

	"thermbal/internal/floorplan"
)

// Package groups the physical constants of a die/package/board stack.
// The two presets reproduce the paper's two evaluation targets.
type Package struct {
	// Name labels the package in reports.
	Name string

	// DieThicknessM is the silicon thickness in metres.
	DieThicknessM float64
	// SiConductivityWmK is silicon thermal conductivity, W/(m·K).
	SiConductivityWmK float64
	// SiVolHeatCap is silicon volumetric heat capacity, J/(m³·K).
	SiVolHeatCap float64

	// DieToPkgUnitAreaR is the vertical die→package thermal resistance
	// per unit area, K·m²/W (smaller area ⇒ larger resistance).
	DieToPkgUnitAreaR float64
	// PkgUnitAreaC is the package heat capacity per unit die area,
	// J/(K·m²). This dominates the seconds-scale dynamics.
	PkgUnitAreaC float64
	// PkgLateralGPerM is lateral conductance per metre of shared block
	// edge at the package layer, W/(K·m).
	PkgLateralGPerM float64
	// PkgToBoardUnitAreaR is the package→board resistance per unit
	// area, K·m²/W.
	PkgToBoardUnitAreaR float64

	// BoardC is the board/sink lump heat capacity, J/K.
	BoardC float64
	// BoardToAmbientR is the board→ambient convection resistance, K/W.
	BoardToAmbientR float64

	// AmbientC is the ambient temperature, °C.
	AmbientC float64

	// CapScale scales every capacitance; 1 for the mobile package,
	// 1/6 for the high-performance package whose temperature
	// variations are six times faster (paper Section 4).
	CapScale float64
}

// MobileEmbedded returns the package derived from real-life streaming
// SoCs for mobile embedded targets: a ~10 °C swing takes a few seconds
// to develop (paper Section 4, [6]).
func MobileEmbedded() Package {
	return Package{
		Name:                "mobile-embedded",
		DieThicknessM:       0.35e-3,
		SiConductivityWmK:   30,
		SiVolHeatCap:        1.75e6,
		DieToPkgUnitAreaR:   3.0e-5,
		PkgUnitAreaC:        1.0e4,
		PkgLateralGPerM:     1.5,
		PkgToBoardUnitAreaR: 7.0e-5,
		BoardC:              0.05,
		BoardToAmbientR:     30,
		AmbientC:            25,
		CapScale:            1,
	}
}

// HighPerformance returns the package modelling highly variant
// (high-performance) SoCs, whose temperature variations are 6x faster
// than the mobile package (paper Sections 4 and 5). Steady-state
// resistances are identical; only the thermal masses shrink.
func HighPerformance() Package {
	p := MobileEmbedded()
	p.Name = "high-performance"
	p.CapScale = 1.0 / 6.0
	return p
}

// SpeedupVs returns how much faster this package's dynamics are compared
// to other (ratio of capacitance scales).
func (p Package) SpeedupVs(other Package) float64 {
	return other.CapScale / p.CapScale
}

// Model couples a floorplan to an RC network and maps block indices to
// silicon node indices.
type Model struct {
	// Net is the underlying RC network. Callers step it via the Model
	// helpers so power vectors stay aligned.
	Net *Network
	// FP is the source floorplan.
	FP *floorplan.Floorplan

	pkg       Package
	blockNode []int // floorplan block index -> silicon node index
	powerBuf  []float64
}

// NewModel builds the RC network for the floorplan under the given
// package and initialises all temperatures to ambient.
func NewModel(fp *floorplan.Floorplan, pkg Package) (*Model, error) {
	if pkg.CapScale <= 0 {
		return nil, fmt.Errorf("thermal: package %q has non-positive CapScale", pkg.Name)
	}
	b := NewBuilder()
	nBlocks := len(fp.Blocks)
	blockNode := make([]int, nBlocks)
	pkgNode := make([]int, nBlocks)

	// Silicon layer: one node per block.
	for i, blk := range fp.Blocks {
		c := pkg.SiVolHeatCap * blk.Area() * pkg.DieThicknessM * pkg.CapScale
		blockNode[i] = b.AddNode(blk.Name, c, 0)
	}
	// Package layer: one node per block, vertical path from silicon.
	for i, blk := range fp.Blocks {
		c := pkg.PkgUnitAreaC * blk.Area() * pkg.CapScale
		pkgNode[i] = b.AddNode("pkg:"+blk.Name, c, 0)
		gVert := blk.Area() / pkg.DieToPkgUnitAreaR
		b.Connect(blockNode[i], pkgNode[i], gVert)
	}
	// Board lump with convection to ambient.
	board := b.AddNode("board", pkg.BoardC*pkg.CapScale, 1/pkg.BoardToAmbientR)
	for i, blk := range fp.Blocks {
		gDown := blk.Area() / pkg.PkgToBoardUnitAreaR
		b.Connect(pkgNode[i], board, gDown)
	}
	// Lateral conduction: silicon (Fourier through die cross-section)
	// and package layer (per shared-edge metre).
	for _, adj := range fp.Adjacencies {
		gSi := pkg.SiConductivityWmK * pkg.DieThicknessM * adj.SharedEdge / adj.Distance
		b.Connect(blockNode[adj.A], blockNode[adj.B], gSi)
		gPkg := pkg.PkgLateralGPerM * adj.SharedEdge
		b.Connect(pkgNode[adj.A], pkgNode[adj.B], gPkg)
	}

	net, err := b.Build(pkg.AmbientC)
	if err != nil {
		return nil, err
	}
	return &Model{
		Net:       net,
		FP:        fp,
		pkg:       pkg,
		blockNode: blockNode,
		powerBuf:  make([]float64, net.NumNodes()),
	}, nil
}

// BlockTemp returns the current temperature of floorplan block i in °C.
func (m *Model) BlockTemp(i int) float64 {
	return m.Net.Temperature(m.blockNode[i])
}

// CoreTemp returns the temperature of the core block with the given
// 0-based core ID, or NaN if no such core exists.
func (m *Model) CoreTemp(coreID int) float64 {
	for i, blk := range m.FP.Blocks {
		if blk.Kind == floorplan.KindCore && blk.CoreID == coreID {
			return m.BlockTemp(i)
		}
	}
	return math.NaN()
}

// powerVector expands per-block power into the full node-length vector
// (package and board nodes dissipate nothing themselves).
func (m *Model) powerVector(blockPower []float64) ([]float64, error) {
	if len(blockPower) != len(m.FP.Blocks) {
		return nil, fmt.Errorf("thermal: blockPower has %d entries, want %d", len(blockPower), len(m.FP.Blocks))
	}
	for i := range m.powerBuf {
		m.powerBuf[i] = 0
	}
	for i, p := range blockPower {
		m.powerBuf[m.blockNode[i]] = p
	}
	return m.powerBuf, nil
}

// Step advances the model by dt seconds under the given per-floorplan-
// block power (watts).
func (m *Model) Step(dt float64, blockPower []float64) error {
	pv, err := m.powerVector(blockPower)
	if err != nil {
		return err
	}
	return m.Net.Step(dt, pv)
}

// Settle jumps the model to the steady state for blockPower.
func (m *Model) Settle(blockPower []float64) error {
	pv, err := m.powerVector(blockPower)
	if err != nil {
		return err
	}
	return m.Net.SettleToSteadyState(pv)
}
