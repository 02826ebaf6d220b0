// Package arch defines the shared architectural vocabulary used throughout
// the repository: instruction addresses, branch kinds, and the classification
// helpers that the trace, workload, and predictor packages agree on.
//
// The model follows the paper's DEC Alpha substrate: instructions are 4 bytes
// wide, a branch instruction sits at the end of its basic block, and control
// transfers to either an explicit target or the fall-through address PC+4.
package arch

import "fmt"

// InstrBytes is the width of one instruction. The paper's substrate is the
// DEC Alpha, a fixed-width 4-byte ISA; block addresses and fall-through
// addresses are derived from it.
const InstrBytes = 4

// Addr is a virtual instruction address. It is 32 bits wide: the
// synthetic substrate lays its code out from 0x10000 and no workload
// comes near 2^32, and the paper's predictors store only the low 32 bits
// of a target (§3.1 footnote), so the high half would be padding in
// every trace record.
type Addr uint32

// FallThrough returns the address of the instruction following the one at a.
func (a Addr) FallThrough() Addr { return a + InstrBytes }

// String formats the address as hexadecimal, the conventional rendering for
// instruction addresses.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// BranchKind classifies a control-transfer instruction. The taxonomy matches
// the paper's: conditional branches and indirect (computed) branches are
// predicted and recorded in the Target History Buffer; unconditional branches
// and returns are not recorded (§3.2); returns are excluded from the indirect
// branch counts (§5.1) because they are handled by a return address stack.
type BranchKind uint8

const (
	// Cond is a conditional direct branch: taken to its target or
	// not-taken to the fall-through.
	Cond BranchKind = iota
	// Uncond is an unconditional direct branch (jump).
	Uncond
	// Call is a direct subroutine call; it pushes a return address.
	Call
	// IndirectCall is a computed subroutine call (e.g. through a function
	// pointer or vtable); it pushes a return address and its target must
	// be predicted by an indirect predictor.
	IndirectCall
	// Indirect is a computed jump (e.g. a switch table dispatch); its
	// target must be predicted by an indirect predictor.
	Indirect
	// Return pops the most recent return address.
	Return

	// NumKinds is the number of distinct branch kinds.
	NumKinds = int(Return) + 1
)

var kindNames = [NumKinds]string{
	Cond:         "cond",
	Uncond:       "uncond",
	Call:         "call",
	IndirectCall: "icall",
	Indirect:     "indirect",
	Return:       "return",
}

// String returns the short lower-case name of the kind.
func (k BranchKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("BranchKind(%d)", uint8(k))
}

// ParseBranchKind converts a short name (as produced by String) back into a
// BranchKind. It reports false if the name is unknown.
func ParseBranchKind(s string) (BranchKind, bool) {
	for i, n := range kindNames {
		if n == s {
			return BranchKind(i), true
		}
	}
	return 0, false
}

// Conditional reports whether the branch has a direction to predict.
func (k BranchKind) Conditional() bool { return k == Cond }

// IndirectTarget reports whether the branch has a computed target that an
// indirect predictor must predict. Returns are excluded, matching the paper:
// "Returns were not included in the indirect branch count as they are not
// predicted by the indirect branch predictors considered in this paper."
func (k BranchKind) IndirectTarget() bool { return k == Indirect || k == IndirectCall }

// PushesReturn reports whether executing the branch pushes a return address
// (i.e. the branch is some form of call).
func (k BranchKind) PushesReturn() bool { return k == Call || k == IndirectCall }

// RecordsInTHB reports whether the target of this branch is inserted into
// the Target History Buffer under the paper's policy (§3.2): conditional and
// indirect branch targets are recorded; unconditional branches contribute no
// information; returns are not stored ("In our experiments, we do not store
// the target addresses of returns").
func (k BranchKind) RecordsInTHB() bool { return k == Cond || k == Indirect || k == IndirectCall }
