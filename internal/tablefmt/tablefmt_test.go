package tablefmt

import (
	"strings"
	"testing"
)

func TestBasicAlignment(t *testing.T) {
	tb := New("Benchmark", "Rate").AlignRight(1)
	tb.Row("gcc", 4.3)
	tb.Row("compress", 10.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Benchmark") {
		t.Errorf("header line: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("separator line: %q", lines[1])
	}
	if !strings.Contains(lines[2], "4.30") {
		t.Errorf("float not formatted to 2 decimals: %q", lines[2])
	}
	// Right-aligned column: the two numeric cells end at the same column.
	if idx1, idx2 := strings.Index(lines[2], "4.30")+4, strings.Index(lines[3], "10.00")+5; idx1 != idx2 {
		t.Errorf("numeric column not right-aligned:\n%s", out)
	}
}

func TestRowCountAndMixedTypes(t *testing.T) {
	tb := New("a", "b", "c")
	tb.Row(1, "x", 2.5)
	out := tb.String()
	if lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n"); len(lines) != 3 {
		t.Errorf("one row rendered as %d lines (want header, rule, row):\n%s", len(lines), out)
	}
	if !strings.Contains(out, "1") || !strings.Contains(out, "x") || !strings.Contains(out, "2.50") {
		t.Errorf("mixed row rendered wrong:\n%s", out)
	}
}

func TestEmptyTable(t *testing.T) {
	tb := New("only", "header")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Errorf("header missing:\n%s", out)
	}
}
