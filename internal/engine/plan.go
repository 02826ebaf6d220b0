package engine

// Plan is the explicit IR between describing the evaluation grid and
// running it: an ordered list of cells. Experiment grid builders
// append the cells their artifact needs — one per (benchmark, column)
// — and hand the plan to Engine.Execute, which owns scheduling. The
// order is the result order; duplicate keys are legal and are served
// from one replay.
type Plan struct {
	cells []Cell
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// Add appends a cell.
func (p *Plan) Add(c Cell) { p.cells = append(p.cells, c) }

// Cond appends a conditional column cell.
func (p *Plan) Cond(trace, columnID string, cells []CondCell) {
	p.Add(Cell{Trace: trace, ColumnID: columnID, Cond: cells})
}

// Indirect appends an indirect column cell.
func (p *Plan) Indirect(trace, columnID string, cells []IndirectCell) {
	p.Add(Cell{Trace: trace, ColumnID: columnID, Indirect: cells})
}

// Cells returns the plan's cells in submission order.
func (p *Plan) Cells() []Cell { return p.cells }

// Len returns how many cells the plan holds.
func (p *Plan) Len() int { return len(p.cells) }
