package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRecordMatchesExperimentsMD regenerates the paper-versus-reproduction
// record and requires it to equal the checked-in EXPERIMENTS.md byte for
// byte, reporting the first line that differs.
func TestRecordMatchesExperimentsMD(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteRecord(&got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	if line, w, g, ok := firstDiff(string(want), got.String()); ok {
		t.Fatalf("EXPERIMENTS.md line %d differs from the regenerated record:\n"+
			"  checked in:  %s\n  regenerated: %s\n"+
			"regenerate with: go run ./cmd/genexperiments > EXPERIMENTS.md", line, w, g)
	}
}

// firstDiff returns the 1-based number and the two versions of the first
// line at which a and b differ, quoted, with "<end of file>" past the end
// of the shorter text; ok is false when they are equal.
func firstDiff(a, b string) (line int, la, lb string, ok bool) {
	as, bs := strings.Split(a, "\n"), strings.Split(b, "\n")
	at := func(s []string, i int) string {
		if i < len(s) {
			return strconv.Quote(s[i])
		}
		return "<end of file>"
	}
	for i := 0; i < len(as) || i < len(bs); i++ {
		if i >= len(as) || i >= len(bs) || as[i] != bs[i] {
			return i + 1, at(as, i), at(bs, i), true
		}
	}
	return 0, "", "", false
}
