package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"indulgence/internal/check"
	"indulgence/internal/journal"
	"indulgence/internal/model"
	"indulgence/internal/shard"
	"indulgence/internal/stats"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// peerEndpoint is the transport of peer mode (`serve -peers ...`): this
// process runs ONE member of a multi-process cluster, listening on its
// own peer entry and dialing the others. The peer list is authoritative
// there: an explicit -n that contradicts it, or an explicit non-TCP
// -transport, is a misconfiguration the user should hear about, not a
// silent override.
func (f serviceFlags) peerEndpoint() (*transport.TCPEndpoint, transport.PeerConfig, error) {
	var cfg transport.PeerConfig
	if *f.self < 1 {
		return nil, cfg, fmt.Errorf("peer mode needs -self (this process's ID in the peer list)")
	}
	self := model.ProcessID(*f.self)
	var err error
	if *f.peersFile != "" {
		if *f.peers != "" {
			return nil, cfg, fmt.Errorf("-peers and -peers-file are mutually exclusive")
		}
		cfg, err = transport.LoadPeerFile(self, *f.clusterID, *f.peersFile)
	} else {
		cfg, err = transport.ParsePeers(self, *f.clusterID, *f.peers)
	}
	if err != nil {
		return nil, cfg, err
	}
	explicit := make(map[string]bool)
	f.fs.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
	if explicit["n"] && *f.n != cfg.N() {
		return nil, cfg, fmt.Errorf("peer mode: -n %d contradicts the %d-member peer list (drop -n; the peer list decides)", *f.n, cfg.N())
	}
	if explicit["transport"] && *f.trans != "tcp" {
		return nil, cfg, fmt.Errorf("peer mode: -transport %s is not available (peer clusters are always tcp)", *f.trans)
	}
	opts := transport.TCPOptions{}
	if *f.verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	ep, err := transport.NewTCPEndpoint(cfg, opts)
	return ep, cfg, err
}

// clusterChild is one spawned `serve -peers` process of the cluster
// driver.
type clusterChild struct {
	id    int
	args  []string
	cmd   *exec.Cmd
	stdin io.WriteCloser

	mu      sync.Mutex
	decided int
	failed  int
	fed     int
	exited  chan struct{}
	exitErr error
}

// counts returns the child's decided/failed line counts.
func (c *clusterChild) counts() (decided, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decided, c.failed
}

// clusterAudit accumulates live observations across every child and
// lifetime, detecting cross-process disagreement as it happens.
type clusterAudit struct {
	mu         sync.Mutex
	live       map[uint64]model.Value
	violations []string
}

// observe records one decision line; a second value for a known
// instance is a live-live agreement violation.
func (a *clusterAudit) observe(child int, instance uint64, value model.Value) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := a.live[instance]; ok && prev != value {
		a.violations = append(a.violations,
			fmt.Sprintf("agreement: instance %d observed as %d and as %d (p%d)", instance, prev, value, child))
		return
	}
	a.live[instance] = value
}

// start launches (or relaunches) the child and wires its stdout scanner.
func (c *clusterChild) start(bin string, audit *clusterAudit, echo bool) error {
	c.cmd = exec.Command(bin, c.args...)
	c.cmd.Stderr = os.Stderr
	stdin, err := c.cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return err
	}
	c.stdin = stdin
	c.exited = make(chan struct{})
	if err := c.cmd.Start(); err != nil {
		// Nobody will close exited for a child that never started;
		// close it here so cleanup paths can always drain it.
		c.exitErr = err
		close(c.exited)
		return err
	}
	go func() {
		defer close(c.exited)
		rd := bufio.NewReader(stdout)
		for {
			line, err := rd.ReadString('\n')
			line = strings.TrimRight(line, "\r\n")
			if line != "" {
				if echo {
					fmt.Printf("p%d| %s\n", c.id, line)
				}
				var v int64
				var inst uint64
				var val int64
				if n, _ := fmt.Sscanf(line, "proposal %d -> instance %d decided %d", &v, &inst, &val); n == 3 {
					audit.observe(c.id, inst, model.Value(val))
					c.mu.Lock()
					c.decided++
					c.mu.Unlock()
				} else if n, _ := fmt.Sscanf(line, "proposal %d failed", &v); n == 1 {
					c.mu.Lock()
					c.failed++
					c.mu.Unlock()
				}
			}
			if err != nil {
				break
			}
		}
		c.exitErr = c.cmd.Wait()
	}()
	return nil
}

// cmdCluster is the local multi-process smoke driver: it spawns one real
// `serve -peers` OS process per member on loopback ports, feeds
// proposals round-robin over the members' stdins, optionally kills and
// restarts one member (journal intact) between two proposal waves, and
// finally audits every member journal plus every decision line printed
// by any member with check.Replay — uniform agreement across OS
// processes and process lifetimes.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 3, "number of member processes")
		t         = fs.Int("t", 1, "resilience bound")
		algo      = fs.String("algo", "atplus2", "algorithm")
		proposals = fs.Int("proposals", 9, "proposals per wave (round-robin over members)")
		batch     = fs.Int("batch", 2, "max proposals per instance")
		inflight  = fs.Int("inflight", 4, "max concurrent instances per member")
		timeout   = fs.Duration("timeout", 25*time.Millisecond, "base suspicion timeout")
		groups    = fs.Int("groups", 1, "consensus groups per member (passed through to every member)")
		placement = fs.String("placement", "round-robin", "placement policy passed through to every member")
		restart   = fs.Int("restart", 0, "kill and restart this member between waves (0 = none)")
		journalAt = fs.String("journal", "", "base journal directory, one subdir per member (default: temp)")
		limit     = fs.Duration("limit", 2*time.Minute, "overall deadline")
		bin       = fs.String("bin", "", "indulgence binary to spawn (default: this executable)")
		echo      = fs.Bool("echo", true, "echo member output with pN| prefixes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 || *n > model.MaxProcesses {
		return fmt.Errorf("cluster: invalid member count %d", *n)
	}
	if *restart < 0 || *restart > *n {
		return fmt.Errorf("cluster: -restart %d is not a member of 1..%d", *restart, *n)
	}
	if *groups < 1 {
		return fmt.Errorf("cluster: need at least one consensus group, got -groups %d", *groups)
	}
	exe := *bin
	if exe == "" {
		var err error
		if exe, err = os.Executable(); err != nil {
			return fmt.Errorf("cluster: cannot locate own binary (use -bin): %w", err)
		}
	}
	base := *journalAt
	if base == "" {
		dir, err := os.MkdirTemp("", "indulgence-cluster-")
		if err != nil {
			return err
		}
		base = dir
	}
	deadline := time.Now().Add(*limit)

	audit := &clusterAudit{live: make(map[uint64]model.Value)}
	var children []*clusterChild
	defer func() {
		for _, c := range children {
			if c.cmd != nil && c.cmd.Process != nil {
				_ = c.cmd.Process.Kill()
			}
		}
	}()
	// Spawning has an unavoidable reserve-then-bind port race (members
	// must share a fixed peer list, so ports are reserved by binding
	// and releasing ephemeral ones first); if another process steals a
	// port in that window the member dies at listen, which shows up as
	// an immediate exit — retry the whole construction with fresh
	// ports instead of failing the run.
	const spawnAttempts = 3
	for attempt := 1; ; attempt++ {
		addrs := make([]string, *n)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			addrs[i] = ln.Addr().String()
			_ = ln.Close()
		}
		specParts := make([]string, *n)
		for i, a := range addrs {
			specParts[i] = fmt.Sprintf("p%d=%s", i+1, a)
		}
		spec := strings.Join(specParts, ",")
		children = make([]*clusterChild, *n)
		for i := range children {
			id := i + 1
			childArgs := []string{"serve",
				"-peers", spec, "-self", fmt.Sprint(id),
				"-algo", *algo, "-t", fmt.Sprint(*t),
				"-batch", fmt.Sprint(*batch), "-inflight", fmt.Sprint(*inflight),
				"-timeout", timeout.String(), "-join-timeout", "5s",
				"-journal", filepath.Join(base, fmt.Sprintf("p%d", id)),
			}
			if *groups > 1 {
				childArgs = append(childArgs, "-groups", fmt.Sprint(*groups), "-placement", *placement)
			}
			children[i] = &clusterChild{id: id, args: childArgs}
		}
		fmt.Printf("cluster: %d members over %s, journals under %s\n", *n, spec, base)
		spawnErr := func() error {
			for _, c := range children {
				if err := c.start(exe, audit, *echo); err != nil {
					return fmt.Errorf("start member p%d: %w", c.id, err)
				}
			}
			time.Sleep(250 * time.Millisecond)
			for _, c := range children {
				select {
				case <-c.exited:
					return fmt.Errorf("member p%d exited at startup: %v", c.id, c.exitErr)
				default:
				}
			}
			return nil
		}()
		if spawnErr == nil {
			break
		}
		for _, c := range children {
			if c.cmd != nil && c.cmd.Process != nil {
				_ = c.cmd.Process.Kill()
			}
			if c.exited != nil {
				<-c.exited
			}
		}
		if attempt >= spawnAttempts {
			return fmt.Errorf("cluster: %w (after %d attempts)", spawnErr, attempt)
		}
		fmt.Printf("cluster: %v — respawning with fresh ports\n", spawnErr)
	}

	// feed distributes one wave of proposals round-robin and waits for
	// every member to print a decision (or failure) for everything it
	// was fed across all waves so far.
	next := 1
	feed := func() error {
		for i := 0; i < *proposals; i++ {
			c := children[(next-1)%*n]
			if _, err := io.WriteString(c.stdin, fmt.Sprintf("%d\n", next)); err != nil {
				return fmt.Errorf("cluster: feed p%d: %w", c.id, err)
			}
			c.mu.Lock()
			c.fed++
			c.mu.Unlock()
			next++
		}
		for {
			settled := true
			for _, c := range children {
				decided, failed := c.counts()
				c.mu.Lock()
				fed := c.fed
				c.mu.Unlock()
				if decided+failed < fed {
					settled = false
				}
				select {
				case <-c.exited:
					return fmt.Errorf("cluster: member p%d exited early: %v", c.id, c.exitErr)
				default:
				}
			}
			if settled {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster: deadline exceeded waiting for decisions")
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	if err := feed(); err != nil {
		return err
	}
	if *restart > 0 {
		victim := children[*restart-1]
		fmt.Printf("cluster: killing member p%d (SIGKILL), journal stays\n", victim.id)
		_ = victim.cmd.Process.Kill()
		<-victim.exited
		fmt.Printf("cluster: restarting member p%d from its journal\n", victim.id)
		if err := victim.start(exe, audit, *echo); err != nil {
			return fmt.Errorf("cluster: restart member p%d: %w", victim.id, err)
		}
		// Reset the line accounting for the new lifetime: decisions
		// already printed stay in the audit, but the new lifetime is
		// only answerable for what it is fed from here on.
		victim.mu.Lock()
		victim.fed, victim.decided, victim.failed = 0, 0, 0
		victim.mu.Unlock()
		if err := feed(); err != nil {
			return err
		}
	}

	// EOF every member; they drain and exit.
	for _, c := range children {
		_ = c.stdin.Close()
	}
	for _, c := range children {
		select {
		case <-c.exited:
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("cluster: member p%d did not exit", c.id)
		}
		if c.exitErr != nil {
			return fmt.Errorf("cluster: member p%d exited with: %v", c.id, c.exitErr)
		}
	}

	// Offline audit: the union of every member journal (both lifetimes
	// of a restarted member share a directory) against every live
	// observation.
	var records []wire.DecisionRecord
	var starts []wire.StartRecord
	for i := 1; i <= *n; i++ {
		dir := filepath.Join(base, fmt.Sprintf("p%d", i))
		if *groups > 1 {
			// Sharded members journal per group under dir; merge every
			// group's stream so check.Replay's cross-group instance
			// audit sees the member whole.
			recs, sts, err := shard.ReplayDir(dir, *groups)
			if err != nil {
				return fmt.Errorf("cluster: replay %s: %w", dir, err)
			}
			records = append(records, recs...)
			starts = append(starts, sts...)
			continue
		}
		if _, err := journal.Replay(dir, func(e journal.Entry) error {
			switch {
			case e.Trace != nil:
				// Introspection context, not part of the consensus audit.
			case e.Start:
				starts = append(starts, wire.StartRecord{Instance: e.Instance(), Alg: e.Alg, Group: e.Decision.Group})
			default:
				records = append(records, e.Decision)
			}
			return nil
		}); err != nil {
			return fmt.Errorf("cluster: replay %s: %w", dir, err)
		}
	}
	audit.mu.Lock()
	rep := check.Replay(records, starts, audit.live)
	violations := append(audit.violations, rep.Violations...)
	decisions := len(audit.live)
	audit.mu.Unlock()

	table := stats.NewTable(
		fmt.Sprintf("cluster: %d members, %s, t=%d, %d proposals/wave", *n, *algo, *t, *proposals),
		"metric", "value")
	table.AddRowf("proposals fed", next-1)
	table.AddRowf("groups per member", *groups)
	table.AddRowf("instances decided (live)", decisions)
	table.AddRowf("journal records (all members)", len(records))
	table.AddRowf("journal start claims", len(starts))
	table.AddRowf("member restarted", *restart)
	table.AddRowf("cross-process violations", len(violations))
	table.Render(os.Stdout)
	if decisions == 0 {
		return fmt.Errorf("cluster: no instance decided")
	}
	if len(violations) > 0 {
		return fmt.Errorf("cluster: %d violations: %v", len(violations), violations)
	}
	fmt.Println("audit: uniform agreement holds across OS processes and lifetimes")
	return nil
}
