package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// exactCounter is a count the program must reproduce bit for bit: a
// different value from the same inputs means a different program, not
// noise. perSeed marks counters that depend on the workload seed; the
// others must agree across every seed.
type exactCounter struct {
	name    string
	value   string
	perSeed bool
}

// state is what one checkout's runs remember across processes: how many
// runs each workload has had (the trial index) and the first value seen
// of every exact counter.
type state struct {
	Trials map[string]int    `json:"trials"`
	Exact  map[string]string `json:"exact"`
}

const stateFile = "state.json"

// loadState reads the run state under dir, or starts an empty one.
func loadState(dir string) (*state, error) {
	st := &state{Trials: map[string]int{}, Exact: map[string]string{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	b, err := os.ReadFile(filepath.Join(dir, stateFile))
	if errors.Is(err, fs.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read state: %w", err)
	}
	if err := json.Unmarshal(b, st); err != nil {
		return nil, fmt.Errorf("parse state: %w", err)
	}
	if st.Trials == nil {
		st.Trials = map[string]int{}
	}
	if st.Exact == nil {
		st.Exact = map[string]string{}
	}
	return st, nil
}

// save writes the state atomically.
func (st *state) save(dir string) error {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, stateFile+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("write state: %w", err)
	}
	return os.Rename(tmp, filepath.Join(dir, stateFile))
}

// key names a counter's slot in the state.
func exactKey(workload string, seed int64, c exactCounter) string {
	if c.perSeed {
		return fmt.Sprintf("%s/seed=%d/%s", workload, seed, c.name)
	}
	return workload + "/" + c.name
}

// compare checks every counter against the value earlier runs recorded,
// and the counters of this run against each other (a traced run reports
// the untraced half's counters too).
func (st *state) compare(workload string, seed int64, cs []exactCounter) []verdict {
	seen := map[string]string{}
	var out []verdict
	for _, c := range cs {
		k := exactKey(workload, seed, c)
		want, ok := seen[k]
		if !ok {
			want, ok = st.Exact[k]
		}
		if ok && want != c.value {
			out = append(out, verdict{name: "exact " + c.name, why: fmt.Sprintf(
				"%s reads %s, an earlier run read %s: the program changed", k, c.value, want)})
			continue
		}
		seen[k] = c.value
	}
	if len(out) == 0 && len(cs) > 0 {
		out = append(out, verdict{name: fmt.Sprintf("exact counters repeat (%d)", len(cs)), ok: true})
	}
	return out
}

// record remembers counters not seen before.
func (st *state) record(workload string, seed int64, cs []exactCounter) {
	for _, c := range cs {
		k := exactKey(workload, seed, c)
		if _, ok := st.Exact[k]; !ok {
			st.Exact[k] = c.value
		}
	}
}
