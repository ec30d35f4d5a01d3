package eval

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/golden"
)

// quickTables holds the quick-scale sections already simulated: the
// shape tests and TestGolden read the same tables, each simulated once
// per test binary.
var quickTables struct {
	sync.Mutex
	done map[string]Renderer
}

// quick returns the section with that key at QuickScale.
func quick(t *testing.T, key string) Renderer {
	t.Helper()
	quickTables.Lock()
	defer quickTables.Unlock()
	if r, ok := quickTables.done[key]; ok {
		return r
	}
	sections, err := Select(key)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sections[0].Run(QuickScale())
	if err != nil {
		t.Fatalf("%s: %v", sections[0].Name, err)
	}
	if quickTables.done == nil {
		quickTables.done = make(map[string]Renderer)
	}
	quickTables.done[key] = r
	return r
}

// TestGolden pins the evaluation's output: every section's data at
// quick scale (tables-quick.json, what `benchtables -json` reports
// under "sections" less the timings) and the paper's tables at full
// scale as `benchtables -scale full -only 1,2,3,4,5,6,f3,ablation`
// prints them (tables-full.txt).
func TestGolden(t *testing.T) {
	if golden.Race {
		t.Skip("full-scale tables under the race detector; a non-race CI step runs them")
	}
	t.Run("quick", func(t *testing.T) {
		type section struct {
			Name string   `json:"name"`
			Data Renderer `json:"data"`
		}
		var report []section
		for _, s := range Sections {
			report = append(report, section{s.Name, quick(t, s.Key)})
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, "tables-quick.json", append(buf, '\n'))
	})
	t.Run("full", func(t *testing.T) {
		sections, err := Select("1,2,3,4,5,6,f3,ablation")
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for _, s := range sections {
			r, err := s.Run(FullScale())
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			out.WriteString(r.Render() + "\n")
		}
		golden.Check(t, "tables-full.txt", []byte(out.String()))
	})
}
