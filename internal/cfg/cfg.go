// Package cfg provides the synthetic program substrate that stands in for
// the paper's ATOM-instrumented DEC Alpha binaries (§5.1).
//
// A Program is a control-flow graph of basic blocks, each terminated by one
// branch instruction. Conditional and indirect branches carry *behaviour
// models* that decide outcomes when the program is executed. The Executor
// walks the graph with a call stack and emits a branch trace — exactly the
// stream an instrumented binary would produce.
//
// Behaviour models are split into immutable build-time structure (the
// deterministic relationships profiling can learn: correlation keys, Markov
// transition tables, loop trip counts) and run-time state (noise, phase
// lengths) driven by the executor's seed. Running the same Program with two
// seeds yields the paper's "profile input set" and "test input set": the
// same program exercised on different data.
package cfg

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/xrand"
)

// BlockID identifies a basic block within its Program.
type BlockID int32

// NoBlock marks an absent successor.
const NoBlock BlockID = -1

// Block is a basic block: a run of NumInstrs instructions at Addr ending in
// a single branch.
type Block struct {
	ID        BlockID
	Addr      arch.Addr
	NumInstrs int
	Kind      arch.BranchKind
	// TakenTo is the taken successor for conditional branches and the
	// target of unconditional branches and direct calls.
	TakenTo BlockID
	// FallTo is the fall-through successor of a conditional branch and
	// the continuation block of a call (the block the matching return
	// resumes at).
	FallTo BlockID
	// Targets are the candidate successors of an indirect branch or
	// indirect call; the behaviour model selects among them.
	Targets []BlockID
	// Cond decides the direction of a conditional branch.
	Cond CondBehavior
	// Ind selects the target of an indirect branch.
	Ind IndirectBehavior
}

// BranchPC returns the address of the block's terminating branch
// instruction.
func (b *Block) BranchPC() arch.Addr {
	return b.Addr + arch.Addr((b.NumInstrs-1)*arch.InstrBytes)
}

// Program is an executable control-flow graph.
type Program struct {
	Name   string
	Blocks []*Block
	Entry  BlockID
}

// Block returns the block with the given id, or nil if out of range.
func (p *Program) Block(id BlockID) *Block {
	if id < 0 || int(id) >= len(p.Blocks) {
		return nil
	}
	return p.Blocks[id]
}

// NumBlocks returns the number of blocks in the program.
func (p *Program) NumBlocks() int { return len(p.Blocks) }

// Validate checks structural well-formedness: entry in range, every
// successor reference valid, behaviours present where required, and block
// addresses strictly increasing (so fall-through addresses never collide
// with other blocks' branch PCs).
func (p *Program) Validate() error {
	if p.Block(p.Entry) == nil {
		return fmt.Errorf("cfg: %s: entry block %d out of range", p.Name, p.Entry)
	}
	var prevEnd arch.Addr
	for i, b := range p.Blocks {
		if b == nil {
			return fmt.Errorf("cfg: %s: block %d is nil", p.Name, i)
		}
		if b.ID != BlockID(i) {
			return fmt.Errorf("cfg: %s: block %d has ID %d", p.Name, i, b.ID)
		}
		if b.NumInstrs < 1 {
			return fmt.Errorf("cfg: %s: block %d has %d instructions", p.Name, i, b.NumInstrs)
		}
		if i > 0 && b.Addr < prevEnd {
			return fmt.Errorf("cfg: %s: block %d at %v overlaps previous block ending at %v",
				p.Name, i, b.Addr, prevEnd)
		}
		prevEnd = b.Addr + arch.Addr(b.NumInstrs*arch.InstrBytes)
		check := func(role string, id BlockID) error {
			if p.Block(id) == nil {
				return fmt.Errorf("cfg: %s: %v block %d has invalid %s successor %d",
					p.Name, b.Kind, i, role, id)
			}
			return nil
		}
		switch b.Kind {
		case arch.Cond:
			if b.Cond == nil {
				return fmt.Errorf("cfg: %s: %v block %d has no behaviour", p.Name, b.Kind, i)
			}
			if err := check("taken", b.TakenTo); err != nil {
				return err
			}
			if err := check("fall-through", b.FallTo); err != nil {
				return err
			}
		case arch.Uncond:
			if err := check("target", b.TakenTo); err != nil {
				return err
			}
		case arch.Call:
			if err := check("callee", b.TakenTo); err != nil {
				return err
			}
			if err := check("continuation", b.FallTo); err != nil {
				return err
			}
		case arch.Indirect, arch.IndirectCall:
			if b.Ind == nil {
				return fmt.Errorf("cfg: %s: %v block %d has no behaviour", p.Name, b.Kind, i)
			}
			if len(b.Targets) == 0 {
				return fmt.Errorf("cfg: %s: %v block %d has no targets", p.Name, b.Kind, i)
			}
			for _, tid := range b.Targets {
				if err := check("indirect target", tid); err != nil {
					return err
				}
			}
			if b.Kind == arch.IndirectCall {
				if err := check("continuation", b.FallTo); err != nil {
					return err
				}
			}
		case arch.Return:
			// no successors
		default:
			return fmt.Errorf("cfg: %s: block %d has unknown kind %d", p.Name, i, b.Kind)
		}
	}
	return nil
}

// Builder incrementally constructs a Program, assigning block addresses.
// Blocks are carved from slabs, each one allocation, so a program of
// thousands of blocks is a few dozen heap objects.
type Builder struct {
	prog *Program
	next arch.Addr
	rng  *xrand.RNG
	slab []Block
}

// maxSlab bounds the blocks of one slab; slabs double up to it.
const maxSlab = 1024

// NewBuilder returns a Builder for a program with the given name. Blocks
// are laid out from base upward; sizeRNG (optional) draws block sizes so
// that branch PCs and fall-through addresses are irregular, as in compiled
// code. A nil sizeRNG gives every block four instructions.
func NewBuilder(name string, base arch.Addr, sizeRNG *xrand.RNG) *Builder {
	return &Builder{prog: &Program{Name: name}, next: base, rng: sizeRNG}
}

// NewBlock appends a block of the given kind and returns it. Successors
// and behaviours are filled in by the caller or by the wiring helpers
// below.
func (bl *Builder) NewBlock(kind arch.BranchKind) *Block {
	n := 4
	if bl.rng != nil {
		n = bl.rng.IntnRange(1, 12)
	}
	if len(bl.slab) == cap(bl.slab) {
		bl.slab = make([]Block, 0, min(max(16, len(bl.prog.Blocks)), maxSlab))
	}
	bl.slab = append(bl.slab, Block{
		ID:        BlockID(len(bl.prog.Blocks)),
		Addr:      bl.next,
		NumInstrs: n,
		Kind:      kind,
		TakenTo:   NoBlock,
		FallTo:    NoBlock,
	})
	b := &bl.slab[len(bl.slab)-1]
	bl.next += arch.Addr(n * arch.InstrBytes)
	// Leave a gap between blocks so fall-through addresses (branch PC+4)
	// never equal another block's start; trace consumers treat them as
	// distinct path elements, as on real hardware.
	bl.next += arch.InstrBytes
	bl.prog.Blocks = append(bl.prog.Blocks, b)
	return b
}

// Cond appends a conditional block.
func (bl *Builder) Cond(behaviour CondBehavior) *Block {
	b := bl.NewBlock(arch.Cond)
	b.Cond = behaviour
	return b
}

// Jump appends an unconditional block.
func (bl *Builder) Jump() *Block { return bl.NewBlock(arch.Uncond) }

// CallBlock appends a direct-call block.
func (bl *Builder) CallBlock() *Block { return bl.NewBlock(arch.Call) }

// IndirectBlock appends a computed-jump block.
func (bl *Builder) IndirectBlock(behaviour IndirectBehavior) *Block {
	b := bl.NewBlock(arch.Indirect)
	b.Ind = behaviour
	return b
}

// IndirectCallBlock appends an indirect-call block.
func (bl *Builder) IndirectCallBlock(behaviour IndirectBehavior) *Block {
	b := bl.NewBlock(arch.IndirectCall)
	b.Ind = behaviour
	return b
}

// ReturnBlock appends a return block.
func (bl *Builder) ReturnBlock() *Block { return bl.NewBlock(arch.Return) }

// Finish sets the entry block, validates, and returns the program.
func (bl *Builder) Finish(entry *Block) (*Program, error) {
	bl.prog.Entry = entry.ID
	if err := bl.prog.Validate(); err != nil {
		return nil, err
	}
	return bl.prog, nil
}

// MustFinish is Finish for construction paths where a validation failure is
// a programming error in the workload definition.
func (bl *Builder) MustFinish(entry *Block) *Program {
	p, err := bl.Finish(entry)
	if err != nil {
		panic(err)
	}
	return p
}
