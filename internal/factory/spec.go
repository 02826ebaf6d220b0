package factory

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bpred"
	"repro/internal/bpred/agree"
	"repro/internal/bpred/bimodal"
	"repro/internal/bpred/bimode"
	"repro/internal/bpred/cascaded"
	"repro/internal/bpred/gshare"
	"repro/internal/bpred/gskew"
	"repro/internal/bpred/hybrid"
	"repro/internal/bpred/targetcache"
	"repro/internal/bpred/twolevel"
	"repro/internal/profile"
	"repro/internal/vlp"
)

// Class selects which branch class a spec is validated and built for.
type Class int

const (
	// Cond is the conditional-direction class.
	Cond Class = iota
	// Indirect is the computed-target class.
	Indirect
)

// String names the class the way the -class flag spells it.
func (c Class) String() string {
	if c == Indirect {
		return "indirect"
	}
	return "cond"
}

// Names lists the schemes the factory can build for the class.
func (c Class) Names() []string {
	if c == Indirect {
		return IndirectNames()
	}
	return CondNames()
}

// MaxPathLength is the deepest path the hash-function hardware supports
// (§3.1): fixed lengths beyond it are unbuildable.
const MaxPathLength = 32

// Spec is the unified predictor specification both branch classes
// share — the parsed form of the one-string grammar
//
//	name[:key=value[,key=value...]]
//
// used by cmd/vlpsim's -pred flag and by configuration files. Keys:
//
//	budget=64KB      hardware budget (B/KB/MB suffix, default bytes)
//	fixed=4          path length for flp (alias: length)
//	profile=p.json   per-branch hash-number profile file for vlp
//	store-returns    insert return targets into the THB (§3.2 ablation)
//	no-rotation      disable per-depth hash rotation (§3.3 ablation)
//
// Examples: "gshare:budget=16KB", "vlp:budget=64KB,profile=gcc.prof",
// "flp:budget=2048,fixed=8".
type Spec struct {
	// Name selects the scheme; see CondNames/IndirectNames.
	Name string
	// BudgetBytes is the predictor-table hardware budget.
	BudgetBytes int
	// FixedLength is the path length for "flp" (0 means the class
	// default: 4 conditional, 8 indirect).
	FixedLength int
	// ProfilePath is a profile file (from cmd/vlpprof) to load lazily;
	// ResolveProfile fills Profile from it.
	ProfilePath string
	// Profile supplies per-branch hash numbers for "vlp".
	Profile *profile.Profile
	// Options tunes the path predictors' THB policy.
	Options vlp.Options
}

// ParseSpec parses the one-string grammar. The bare scheme name (no
// colon) is a valid spec with every other field left at its default,
// so existing "-pred gshare -budget 16384" style invocations keep
// working with the flags supplying the rest.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	name, rest, hasParams := strings.Cut(strings.TrimSpace(s), ":")
	spec.Name = strings.ToLower(strings.TrimSpace(name))
	if spec.Name == "" {
		return Spec{}, fmt.Errorf("factory: empty predictor spec %q", s)
	}
	if !hasParams {
		return spec, nil
	}
	specKeys := []string{"budget", "fixed", "profile", "store-returns", "no-rotation"}
	err := EachKV(s, rest, func(key, value string, hasValue bool) error {
		switch key {
		case "budget":
			if !hasValue {
				return ErrNeedsValue(s, key)
			}
			b, err := ParseBudget(value)
			if err != nil {
				return ErrBadValue(s, key, value)
			}
			spec.BudgetBytes = b
		case "fixed", "length":
			if !hasValue {
				return ErrNeedsValue(s, key)
			}
			l, err := strconv.Atoi(value)
			if err != nil {
				return ErrBadValue(s, key, value)
			}
			spec.FixedLength = l
		case "profile":
			if !hasValue || value == "" {
				return ErrNeedsValue(s, key)
			}
			spec.ProfilePath = value
		case "store-returns":
			b, err := parseBoolValue(value, hasValue)
			if err != nil {
				return ErrBadValue(s, key, value)
			}
			spec.Options.StoreReturns = b
		case "no-rotation":
			b, err := parseBoolValue(value, hasValue)
			if err != nil {
				return ErrBadValue(s, key, value)
			}
			spec.Options.NoRotation = b
		default:
			return ErrUnknownKey(s, key, specKeys)
		}
		return nil
	})
	if err != nil {
		return Spec{}, err
	}
	return spec, nil
}

func parseBoolValue(value string, hasValue bool) (bool, error) {
	if !hasValue {
		return true, nil // bare flag form: "store-returns"
	}
	b, err := strconv.ParseBool(value)
	if err != nil {
		return false, fmt.Errorf("bad boolean %q", value)
	}
	return b, nil
}

// String renders the spec back in canonical grammar form, suitable for
// report Params and for round-tripping through ParseSpec.
func (s Spec) String() string {
	var parts []string
	if s.BudgetBytes > 0 {
		parts = append(parts, "budget="+FormatBudget(s.BudgetBytes))
	}
	if s.FixedLength > 0 {
		parts = append(parts, fmt.Sprintf("fixed=%d", s.FixedLength))
	}
	if s.ProfilePath != "" {
		parts = append(parts, "profile="+s.ProfilePath)
	}
	if s.Options.StoreReturns {
		parts = append(parts, "store-returns")
	}
	if s.Options.NoRotation {
		parts = append(parts, "no-rotation")
	}
	name := strings.ToLower(s.Name)
	if len(parts) == 0 {
		return name
	}
	return name + ":" + strings.Join(parts, ",")
}

// ParseBudget converts a budget string — "2048", "512B", "64KB",
// "1MB", "0.5KB" — into bytes. The suffix is case-insensitive and the
// value must come out as a positive whole number of bytes.
func ParseBudget(s string) (int, error) {
	text := strings.TrimSpace(strings.ToUpper(s))
	mult := 1.0
	switch {
	case strings.HasSuffix(text, "GB"):
		mult, text = 1<<30, strings.TrimSuffix(text, "GB")
	case strings.HasSuffix(text, "MB"):
		mult, text = 1<<20, strings.TrimSuffix(text, "MB")
	case strings.HasSuffix(text, "KB"):
		mult, text = 1<<10, strings.TrimSuffix(text, "KB")
	case strings.HasSuffix(text, "B"):
		text = strings.TrimSuffix(text, "B")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
	if err != nil {
		return 0, fmt.Errorf("bad budget %q", s)
	}
	bytes := v * mult
	if bytes <= 0 || bytes != math.Trunc(bytes) || bytes > math.MaxInt32 {
		return 0, fmt.Errorf("budget %q is not a positive whole number of bytes", s)
	}
	return int(bytes), nil
}

// FormatBudget renders bytes in the largest exact unit, the inverse of
// ParseBudget for power-of-two sizes.
func FormatBudget(bytes int) string {
	switch {
	case bytes >= 1<<20 && bytes%(1<<20) == 0:
		return fmt.Sprintf("%dMB", bytes/(1<<20))
	case bytes >= 1<<10 && bytes%(1<<10) == 0:
		return fmt.Sprintf("%dKB", bytes/(1<<10))
	default:
		return strconv.Itoa(bytes)
	}
}

// Validate checks the spec against the class it will be built for,
// without constructing anything: the scheme must exist for the class,
// the budget must be positive, path lengths must be within hardware
// range, and vlp must have a profile (inline or by path) of the right
// kind. Build errors that depend on the concrete table geometry (e.g.
// non-power-of-two budgets) still surface at construction time.
func (s Spec) Validate(class Class) error {
	name := strings.ToLower(s.Name)
	if name == "" {
		return fmt.Errorf("factory: spec has no scheme name")
	}
	known := false
	for _, n := range class.Names() {
		if n == name {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("factory: unknown %s predictor %q (have %s)",
			class, name, strings.Join(class.Names(), ", "))
	}
	if s.BudgetBytes <= 0 {
		return fmt.Errorf("factory: %s spec needs a positive budget, got %d bytes", name, s.BudgetBytes)
	}
	if s.FixedLength < 0 || s.FixedLength > MaxPathLength {
		return fmt.Errorf("factory: fixed path length %d out of range [0, %d]", s.FixedLength, MaxPathLength)
	}
	if name == "vlp" {
		if s.Profile == nil && s.ProfilePath == "" {
			return fmt.Errorf("factory: vlp needs a profile (run vlpprof first)")
		}
		if s.Profile != nil && s.Profile.Kind != class.String() {
			return fmt.Errorf("factory: profile is for %s branches, want %s", s.Profile.Kind, class)
		}
	}
	return nil
}

// ResolveProfile loads ProfilePath into Profile if a path was given and
// no profile is attached yet. It is the one I/O step of spec
// resolution, split out so Validate stays pure.
func (s *Spec) ResolveProfile() error {
	if s.Profile != nil || s.ProfilePath == "" {
		return nil
	}
	p, err := profile.Load(s.ProfilePath)
	if err != nil {
		return err
	}
	s.Profile = p
	return nil
}

// Cond validates the spec for the conditional class, resolves its
// profile, and builds the predictor.
func (s Spec) Cond() (bpred.CondPredictor, error) {
	if err := s.Validate(Cond); err != nil {
		return nil, err
	}
	if err := s.ResolveProfile(); err != nil {
		return nil, err
	}
	if err := s.checkProfileKind(Cond); err != nil {
		return nil, err
	}
	switch strings.ToLower(s.Name) {
	case "bimodal":
		return bimodal.New(s.BudgetBytes)
	case "agree":
		return agree.New(s.BudgetBytes, 12)
	case "bimode":
		return bimode.New(s.BudgetBytes)
	case "gshare":
		return gshare.New(s.BudgetBytes)
	case "gskew":
		return gskew.New(s.BudgetBytes)
	case "gas":
		k, err := bpred.Log2Entries(s.BudgetBytes, 2)
		if err != nil {
			return nil, err
		}
		h := k - 4
		if h < 1 {
			h = 1
		}
		return twolevel.NewGAs(k, h)
	case "pas":
		k, err := bpred.Log2Entries(s.BudgetBytes, 2)
		if err != nil {
			return nil, err
		}
		h := k / 2
		if h < 1 {
			h = 1
		}
		return twolevel.NewPAs(k, 10, h)
	case "hybrid":
		g, err := gshare.New(s.BudgetBytes / 2)
		if err != nil {
			return nil, err
		}
		b, err := bimodal.New(s.BudgetBytes / 4)
		if err != nil {
			return nil, err
		}
		return hybrid.New(g, b, 12), nil
	case "flp":
		l := s.FixedLength
		if l == 0 {
			l = 4
		}
		return vlp.NewCond(s.BudgetBytes, vlp.Fixed{L: l}, s.Options)
	case "vlp":
		return vlp.NewCond(s.BudgetBytes, s.Profile.Selector(), s.Options)
	case "dynamic":
		return vlp.NewDynCond(s.BudgetBytes, nil, 12, 4)
	default:
		// Validate accepted the name, so the switch must handle it.
		panic(fmt.Sprintf("factory: conditional scheme %q validated but not buildable", s.Name))
	}
}

// Indirect validates the spec for the indirect class, resolves its
// profile, and builds the predictor.
func (s Spec) Indirect() (bpred.IndirectPredictor, error) {
	if err := s.Validate(Indirect); err != nil {
		return nil, err
	}
	if err := s.ResolveProfile(); err != nil {
		return nil, err
	}
	if err := s.checkProfileKind(Indirect); err != nil {
		return nil, err
	}
	switch strings.ToLower(s.Name) {
	case "btb":
		return targetcache.NewBTBBudget(s.BudgetBytes)
	case "pattern":
		return targetcache.NewPatternBudget(s.BudgetBytes)
	case "path":
		return targetcache.NewPathBudget(s.BudgetBytes)
	case "path-peraddr":
		// Halve the target table so the per-branch history registers
		// fit inside the same budget as the global-history variants.
		k, err := bpred.Log2Entries(s.BudgetBytes/2, 32)
		if err != nil {
			return nil, err
		}
		q := k / 3
		if q == 0 {
			q = 1
		}
		return targetcache.NewPathPerAddr(k, k, 3, q)
	case "cascaded":
		return cascaded.NewBudget(s.BudgetBytes)
	case "flp":
		l := s.FixedLength
		if l == 0 {
			l = 8
		}
		return vlp.NewIndirect(s.BudgetBytes, vlp.Fixed{L: l}, s.Options)
	case "vlp":
		return vlp.NewIndirect(s.BudgetBytes, s.Profile.Selector(), s.Options)
	default:
		panic(fmt.Sprintf("factory: indirect scheme %q validated but not buildable", s.Name))
	}
}

// checkProfileKind re-checks the profile kind after ResolveProfile may
// have loaded it from disk (Validate can only check an inline profile).
func (s Spec) checkProfileKind(class Class) error {
	if strings.ToLower(s.Name) == "vlp" && s.Profile != nil && s.Profile.Kind != class.String() {
		return fmt.Errorf("factory: profile is for %s branches, want %s", s.Profile.Kind, class)
	}
	return nil
}

// sortedNames returns a sorted copy of names.
func sortedNames(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}
