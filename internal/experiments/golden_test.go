package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputsMatchGoldens pins the paper's Table 1 and Figs. 5–7 (and
// the ablations) byte for byte: any engine change that moves a cell
// count, a distance tie or a usability percentage fails here. The
// goldens are the output of
//
//	go run ./cmd/experiments -run <name> -seed 2007
//
// and are regenerated the same way only when a change to the
// experiments themselves is intended.
func TestOutputsMatchGoldens(t *testing.T) {
	for _, name := range []string{"table1", "fig5", "fig6", "fig7", "ablations"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := Run(&got, name, 2007); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s output differs from testdata/%s.txt\n--- got ---\n%s\n--- want ---\n%s",
					name, name, got.String(), want)
			}
		})
	}
}
