// Package scenarios embeds the shipped scenario files so library code —
// the experiment harness (every grid point starts from "reference"), the
// arena family, benchmarks, property tests — can enumerate and load them
// without knowing where the repository lives on disk. The on-disk files stay the source of truth: the embedded copies
// are byte-identical by construction, and the golden tests keep reading
// the files directly.
package scenarios

import (
	"bytes"
	"embed"
	"sort"
	"strings"

	"repro/internal/scenario"
)

//go:embed *.json
var files embed.FS

// Names returns the scenario names (file basenames without .json), sorted.
func Names() []string {
	entries, err := files.ReadDir(".")
	if err != nil {
		panic("scenarios: embedded FS unreadable: " + err.Error())
	}
	var names []string
	for _, e := range entries {
		if n, ok := strings.CutSuffix(e.Name(), ".json"); ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Bytes returns the raw JSON of the named scenario.
func Bytes(name string) ([]byte, error) {
	return files.ReadFile(name + ".json")
}

// Load parses the named scenario.
func Load(name string) (scenario.Scenario, error) {
	raw, err := Bytes(name)
	if err != nil {
		return scenario.Scenario{}, err
	}
	return scenario.Read(bytes.NewReader(raw))
}
