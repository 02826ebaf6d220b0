package repro

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"repro/internal/experiments"
)

// recordedDigests reads the benchmark's recorded rendering digests out
// of perfbench/digests.go: digestBase, the base scale they were taken
// at, and suiteDigests, each registry experiment's text sha256. Parsing
// the file keeps the recorded values in one place.
func recordedDigests(t *testing.T) (base int, digests map[string]string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "perfbench/digests.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if len(vs.Names) != 1 || len(vs.Values) != 1 {
				continue
			}
			switch vs.Names[0].Name {
			case "digestBase":
				lit, ok := vs.Values[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.INT {
					t.Fatalf("digestBase is not an integer literal")
				}
				if base, err = strconv.Atoi(lit.Value); err != nil {
					t.Fatal(err)
				}
			case "suiteDigests":
				cl, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok {
					t.Fatalf("suiteDigests is not a map literal")
				}
				digests = map[string]string{}
				for _, elt := range cl.Elts {
					kv := elt.(*ast.KeyValueExpr)
					k, err1 := strconv.Unquote(kv.Key.(*ast.BasicLit).Value)
					v, err2 := strconv.Unquote(kv.Value.(*ast.BasicLit).Value)
					if err1 != nil || err2 != nil {
						t.Fatalf("suiteDigests entry %v: %v %v", kv.Key, err1, err2)
					}
					digests[k] = v
				}
			}
		}
	}
	if base == 0 || len(digests) == 0 {
		t.Fatalf("perfbench/digests.go: digestBase %d, %d suite digests", base, len(digests))
	}
	return base, digests
}

// TestSuiteDigests renders every registry experiment cold, on one fresh
// Suite at the recorded base scale, and checks each text's sha256
// against the benchmark's recorded digest: the rendered artifacts stay
// byte-identical.
func TestSuiteDigests(t *testing.T) {
	base, want := recordedDigests(t)
	reg := experiments.Registry()
	if len(reg) != len(want) {
		t.Errorf("%d registry experiments, %d recorded digests", len(reg), len(want))
	}
	s := experiments.NewSuite(experiments.Config{BaseRecords: base})
	for _, e := range reg {
		rep, err := e.Run(s, context.Background())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		sum := sha256.Sum256([]byte(rep.Text))
		if got := hex.EncodeToString(sum[:]); got != want[e.ID] {
			t.Errorf("%s: rendered text sha256 %s, recorded %q", e.ID, got, want[e.ID])
		}
	}
}
