package eval

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/golden"
)

// simulated holds the sections already simulated, by scale and key: the
// shape tests, TestGolden's goldens and EXPERIMENTS.md's tables read the
// same results, each simulated once per test binary.
var simulated struct {
	sync.Mutex
	done map[simKey]Renderer
}

type simKey struct {
	sc  Scale
	key string
}

// section returns the section with that key at scale sc.
func section(t *testing.T, sc Scale, key string) Renderer {
	t.Helper()
	simulated.Lock()
	defer simulated.Unlock()
	if r, ok := simulated.done[simKey{sc, key}]; ok {
		return r
	}
	sections, err := Select(key)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sections[0].Run(sc)
	if err != nil {
		t.Fatalf("%s: %v", sections[0].Name, err)
	}
	if simulated.done == nil {
		simulated.done = make(map[simKey]Renderer)
	}
	simulated.done[simKey{sc, key}] = r
	return r
}

// quick returns the section with that key at QuickScale.
func quick(t *testing.T, key string) Renderer { return section(t, QuickScale(), key) }

// TestGolden pins the evaluation's output: every section's data at
// quick scale (tables-quick.json, what `benchtables -json` reports
// under "sections" less the timings), the paper's tables at full
// scale as `benchtables -scale full -only 1,2,3,4,5,6,f3,ablation`
// prints them (tables-full.txt), and the paper-vs-ours tables of
// EXPERIMENTS.md rendered from those same full-scale results
// (experiments).
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
			out.WriteString(section(t, FullScale(), s.Key).Render() + "\n")
		}
		golden.Check(t, "tables-full.txt", []byte(out.String()))
	})
	t.Run("experiments", func(t *testing.T) {
		path := filepath.Join(golden.Dir(t), "..", "..", "EXPERIMENTS.md")
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range paperVsOurs(t) {
			if !strings.Contains(string(doc), tab.markdown) {
				t.Errorf("EXPERIMENTS.md does not hold %s as the full-scale run renders it; want:\n%s", tab.name, tab.markdown)
			}
		}
	})
}
