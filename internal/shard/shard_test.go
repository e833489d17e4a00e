package shard_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/shard"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// hubEndpoints builds one hub and returns its endpoints.
func hubEndpoints(t *testing.T, n int) []transport.Transport {
	t.Helper()
	hub, err := transport.NewHub(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	eps := make([]transport.Transport, n)
	for i := 0; i < n; i++ {
		ep, err := hub.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	return eps
}

func runtimeConfig(groups int) shard.Config {
	return shard.Config{
		Service: service.Config{
			N: 3, T: 1,
			Factory:     core.New(core.Options{}),
			BaseTimeout: 20 * time.Millisecond,
			Linger:      time.Millisecond,
		},
		Groups:         groups,
		JournalOptions: journal.Options{NoSync: true},
	}
}

// TestRuntimeShardsDisjoint drives proposals through a multi-group
// runtime and checks the contract the whole design rests on: every
// group resolves its proposals, and the decided instance IDs of
// different groups live in disjoint strided spaces.
func TestRuntimeShardsDisjoint(t *testing.T) {
	const groups = 3
	rt, err := shard.New(runtimeConfig(groups), hubEndpoints(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Groups() != groups || rt.Policy() != "round-robin" {
		t.Fatalf("runtime = %d groups, %q policy", rt.Groups(), rt.Policy())
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const total = 24
	futs := make([]*service.Future, 0, total)
	for i := 0; i < total; i++ {
		f, err := rt.Propose(ctx, model.Value(100+i))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		dec, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Batch < 1 {
			t.Fatalf("impossible batch %d", dec.Batch)
		}
	}

	roll := rt.Snapshot()
	if roll.Proposals != total || roll.Resolved != total {
		t.Fatalf("rollup proposals/resolved = %d/%d, want %d/%d",
			roll.Proposals, roll.Resolved, total, total)
	}
	if len(roll.Violations) != 0 {
		t.Fatalf("violations: %v", roll.Violations)
	}
	// Round-robin touched every group.
	for g, st := range roll.Groups {
		if st.Proposals == 0 {
			t.Fatalf("group %d saw no proposals under round-robin", g)
		}
	}
}

// TestRuntimeJournalRecovery is the cross-group restart audit: a
// journaled multi-group runtime is aborted mid-life and restarted on
// the same directory tree; the successor must resume every group past
// its own frontier (no instance ID re-used, in any group), and the
// offline replay of all group journals together must pass check.Replay
// — including its cross-group instance audit.
func TestRuntimeJournalRecovery(t *testing.T) {
	const groups = 3
	dir := t.TempDir()
	live := make(map[uint64]model.Value)

	run := func(base int) {
		cfg := runtimeConfig(groups)
		cfg.JournalDir = dir
		rt, err := shard.New(cfg, hubEndpoints(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		var futs []*service.Future
		for i := 0; i < 12; i++ {
			f, err := rt.Propose(ctx, model.Value(base+i))
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
		for _, f := range futs {
			dec, err := f.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := live[dec.Instance]; ok && prev != dec.Value {
				t.Fatalf("instance %d resolved %d and later %d", dec.Instance, prev, dec.Value)
			}
			live[dec.Instance] = dec.Value
		}
		// Abort, not Close: restart recovery must work from the crash
		// shutdown shape.
		rt.Abort()
	}
	run(1000)
	run(2000) // the successor lifetime, recovering per-group frontiers

	records, starts, err := shard.ReplayDir(dir, groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 || len(starts) == 0 {
		t.Fatalf("replayed %d records, %d starts", len(records), len(starts))
	}
	perGroup := make(map[uint64]int)
	for _, r := range records {
		if r.Instance%groups != r.Group {
			t.Fatalf("instance %d journaled under group %d (not its residue class)", r.Instance, r.Group)
		}
		perGroup[r.Group]++
	}
	if len(perGroup) != groups {
		t.Fatalf("decisions landed in %d groups, want %d", len(perGroup), groups)
	}
	if rep := check.Replay(records, starts, live); !rep.OK() {
		t.Fatalf("cross-group replay audit failed: %v", rep.Violations)
	}
}

// TestReplayDirFlagsCrossGroupInstance plants the violation the audit
// exists to catch: one instance ID journaled by two different groups.
// The strided allocation makes this impossible for a correct runtime,
// so check.Replay over the combined stream must flag it.
func TestReplayDirFlagsCrossGroupInstance(t *testing.T) {
	dir := t.TempDir()
	for g, rec := range []wire.DecisionRecord{
		{Instance: 5, Value: 7, Round: 3, Batch: 1, Group: 0},
		{Instance: 5, Value: 7, Round: 3, Batch: 1, Group: 1},
	} {
		j, err := journal.Open(shard.GroupDir(dir, g), journal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	records, starts, err := shard.ReplayDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep := check.Replay(records, starts, nil)
	if rep.Agreement {
		t.Fatalf("cross-group instance not flagged: %+v", rep)
	}
}

// TestPeerRuntimeMultiGroup runs a 3-member sharded cluster in one
// process over a shared hub, one runtime per member with that member as
// its only local member and per-group journals. Proposals enter
// different members under key-affinity placement, every member's
// matching group joins, and all members resolve each key's instances
// identically. Member 3 then crash-stops (Abort), restarts from its
// journals, serves its journaled decisions via Lookup and keeps
// deciding; check.Replay over every member's journals audits both
// lifetimes.
func TestPeerRuntimeMultiGroup(t *testing.T) {
	const n, groups = 3, 2
	eps := hubEndpoints(t, n)
	root := t.TempDir()
	dirs := make([]string, n)
	members := make([]*shard.Runtime, n)
	start := func(i int) {
		cfg := runtimeConfig(groups)
		cfg.Placement = shard.NewKeyAffinity()
		dirs[i] = filepath.Join(root, fmt.Sprintf("p%d", i+1))
		cfg.JournalDir = dirs[i]
		rt, err := shard.New(cfg, eps[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		members[i] = rt
	}
	for i := range members {
		start(i)
	}
	defer func() {
		for _, m := range members {
			_ = m.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	live := make(map[uint64]model.Value)
	// propose drives 12 keyed proposals round-robin over the members and
	// returns, per member, the instances its futures resolved to.
	propose := func(base int) [n][]uint64 {
		type tagged struct {
			fut  *service.Future
			from int
		}
		var futs []tagged
		for i := 0; i < 12; i++ {
			f, err := members[i%n].ProposeKey(ctx, uint64(i%4), model.Value(base+i))
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, tagged{f, i % n})
		}
		var resolved [n][]uint64
		for _, tf := range futs {
			dec, err := tf.fut.Wait(ctx)
			if err != nil {
				t.Fatalf("member %d: %v", tf.from+1, err)
			}
			if prev, ok := live[dec.Instance]; ok && prev != dec.Value {
				t.Fatalf("instance %d resolved %d and %d", dec.Instance, prev, dec.Value)
			}
			live[dec.Instance] = dec.Value
			resolved[tf.from] = append(resolved[tf.from], dec.Instance)
		}
		return resolved
	}

	first := propose(500)
	// A proposal entering member 1 alone reaches the other members only
	// through the join signal their runtimes route to the owning group.
	f, err := members[0].ProposeKey(ctx, 0, 700)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	live[dec.Instance] = dec.Value
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if members[1].Snapshot().JoinedInstances+members[2].Snapshot().JoinedInstances > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no member joined a slot member 1 started")
		}
	}

	// Crash member 3 and restart it from its journals: every decision it
	// resolved is on record (journal-before-complete) and served without
	// re-running consensus.
	members[2].Abort()
	start(2)
	for _, inst := range first[2] {
		dec, ok := members[2].Lookup(inst)
		if !ok || dec.Value != live[inst] {
			t.Fatalf("restarted member: Lookup(%d) = %+v, %v; want value %d", inst, dec, ok, live[inst])
		}
	}
	propose(900)

	for _, m := range members {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var records []wire.DecisionRecord
	var starts []wire.StartRecord
	for _, dir := range dirs {
		recs, sts, err := shard.ReplayDir(dir, groups)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, recs...)
		starts = append(starts, sts...)
	}
	if rep := check.Replay(records, starts, live); !rep.OK() {
		t.Fatalf("cross-member replay audit failed: %v", rep.Violations)
	}
}
