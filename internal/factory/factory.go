// Package factory constructs predictors from declarative specifications —
// the registry behind cmd/vlpsim's -pred flag and any other place
// predictors are chosen from configuration rather than code.
//
// The native form is the Spec string grammar (see Spec and ParseSpec):
// one parseable string like "vlp:budget=64KB,profile=gcc.prof" names the
// scheme and every parameter, so command lines and config files share a
// single syntax; code that already holds a profile builds a Spec
// directly and calls Spec.Cond or Spec.Indirect.
package factory

// CondNames lists the conditional schemes the factory can build.
func CondNames() []string {
	return sortedNames([]string{"bimodal", "gshare", "gskew", "gas", "pas",
		"hybrid", "agree", "bimode", "flp", "vlp", "dynamic"})
}

// IndirectNames lists the indirect schemes the factory can build.
func IndirectNames() []string {
	return sortedNames([]string{"btb", "pattern", "path", "path-peraddr",
		"cascaded", "flp", "vlp"})
}
