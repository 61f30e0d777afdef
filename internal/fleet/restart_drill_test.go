package fleet

// The kill-restart drill runs the real dnasimd coordinator binary as a
// subprocess, SIGKILLs it mid-job — the one failure mode an in-process
// test cannot stage honestly — restarts it on the same port and data dir,
// and demands the crash be invisible: the job completes under its original
// ID with bytes identical to a single-node run, shards finished before the
// kill come back from the durable spill, and every ledger and spill file
// scrubs clean afterwards.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dnastore/internal/client"
	"dnastore/internal/durable"
	"dnastore/internal/server"
)

var (
	simdOnce sync.Once
	simdBin  string
	simdErr  error
)

// buildDnasimd compiles the dnasimd binary once per test process, with the
// race detector so the drill exercises the same build fleetcheck runs.
func buildDnasimd(t *testing.T) string {
	t.Helper()
	simdOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dnasimd-drill")
		if err != nil {
			simdErr = err
			return
		}
		simdBin = filepath.Join(dir, "dnasimd")
		cmd := exec.Command("go", "build", "-race", "-o", simdBin, "dnastore/cmd/dnasimd")
		if out, err := cmd.CombinedOutput(); err != nil {
			simdErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if simdErr != nil {
		t.Fatalf("building dnasimd: %v", simdErr)
	}
	return simdBin
}

// freePort reserves a listen port and releases it for the subprocess. Go
// listeners set SO_REUSEADDR, so the coordinator can rebind it across the
// kill/restart cycle.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// startCoordinatorProc launches the dnasimd coordinator subprocess.
func startCoordinatorProc(t *testing.T, bin string, port int, dataDir, nodes string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-coordinator",
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-nodes", nodes,
		"-data-dir", dataDir,
		"-shard-clusters", "4",
		"-max-shard-attempts", "8",
		"-probe-interval", "50ms",
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start coordinator: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// waitReady polls /readyz until the coordinator admits work. Recovery runs
// before the listener binds, so 200 here means the ledger replay is done.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator not ready after 30s (last: %v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scrapeMetric reads one counter/gauge from a live /metrics endpoint.
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && (fields[0] == name || strings.HasPrefix(fields[0], name+"{")) {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("parse metric %s: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestFleetDrillKillRestart: SIGKILL the coordinator process mid-job,
// restart it on the same port and data dir, and the admitted job must
// complete byte-identically under its original ID — with the restart
// visible only in the recovery metrics and the ledger's replay marker.
func TestFleetDrillKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-restart drill builds binaries")
	}
	bin := buildDnasimd(t)
	spec := testSpec(61)
	want := groundTruth(t, spec)
	dataDir := t.TempDir()

	// In-process workers survive the coordinator's death, exactly like real
	// worker nodes would. One is slow enough that the job is reliably still
	// in flight when the kill lands.
	w1 := startDrillWorker(t, t.TempDir(), false)
	w2 := startDrillWorker(t, t.TempDir(), false)
	w1.delayNS.Store(int64(2 * time.Millisecond))
	w2.delayNS.Store(int64(25 * time.Millisecond))
	nodes := fmt.Sprintf("w1=%s,w2=%s", w1.url(), w2.url())

	port := freePort(t)
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	proc1 := startCoordinatorProc(t, bin, port, dataDir, nodes)
	waitReady(t, base)

	cli := client.New(client.Config{BaseURL: base, PollInterval: 10 * time.Millisecond, Seed: 62,
		MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, _, err := cli.SubmitKeyed(ctx, "kill-drill", testJobSpecOf(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Kill once at least one shard result is durably spilled — so the
	// restart provably resumes from disk — and while the slow worker still
	// owes work, so the job cannot have finished.
	deadline := time.Now().Add(30 * time.Second)
	for scrapeMetric(t, base, "dnasimd_fleet_spill_writes_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no shard spilled within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := proc1.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	proc1.Wait()

	// Restart on the same port and data dir. Readiness implies the ledger
	// replay already ran.
	w2.delayNS.Store(int64(2 * time.Millisecond))
	proc2 := startCoordinatorProc(t, bin, port, dataDir, nodes)
	waitReady(t, base)
	if got := scrapeMetric(t, base, "dnasimd_fleet_ledger_replays_total"); got < 1 {
		t.Errorf("ledger replays = %v, want >= 1", got)
	}
	if got := scrapeMetric(t, base, "dnasimd_fleet_recovered_jobs_total"); got < 1 {
		t.Errorf("recovered jobs = %v, want >= 1", got)
	}

	// The job the killed process admitted must complete under its old ID.
	if got := waitTerminal(t, cli, st.ID); got.State != server.StateDone {
		t.Fatalf("recovered job settled %s: %s", got.State, got.Error)
	}
	data, err := cli.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("recovered dataset differs from single-node ground truth")
	}
	if got := scrapeMetric(t, base, "dnasimd_fleet_spill_hits_total"); got < 1 {
		t.Errorf("spill hits = %v, want >= 1 (pre-kill shards must come from the spill, not recompute)", got)
	}

	// A duplicate spec under a fresh key must be served without any worker
	// touching a strand: the shards live in the restarted coordinator's
	// cache and spill.
	transmitsBefore := w1.transmits.Load() + w2.transmits.Load()
	st2, replayed, err := cli.SubmitKeyed(ctx, "kill-drill-dup", testJobSpecOf(spec))
	if err != nil || replayed {
		t.Fatalf("duplicate submit: replayed=%v err=%v", replayed, err)
	}
	if got := waitTerminal(t, cli, st2.ID); got.State != server.StateDone {
		t.Fatalf("duplicate job settled %s: %s", got.State, got.Error)
	}
	data2, err := cli.Result(ctx, st2.ID)
	if err != nil {
		t.Fatalf("duplicate result: %v", err)
	}
	if !bytes.Equal(data2, want) {
		t.Fatal("duplicate-spec dataset differs from ground truth")
	}
	if got := w1.transmits.Load() + w2.transmits.Load(); got != transmitsBefore {
		t.Errorf("duplicate run cost %d worker transmits, want 0", got-transmitsBefore)
	}

	// Same Idempotency-Key as the killed process accepted: replayed, same ID.
	st3, replayed, err := cli.SubmitKeyed(ctx, "kill-drill", testJobSpecOf(spec))
	if err != nil || !replayed || st3.ID != st.ID {
		t.Errorf("idempotent replay across kill: id=%s replayed=%v err=%v, want %s/true/nil", st3.ID, replayed, err, st.ID)
	}

	// Graceful shutdown, then scrub the surviving state: every ledger is an
	// intact journal, every spill entry an intact container.
	proc2.Process.Signal(syscall.SIGTERM)
	waitExit(t, proc2)

	wals, err := filepath.Glob(filepath.Join(dataDir, "ledger", "*.wal"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("ledger dir: %v files, err %v", len(wals), err)
	}
	for _, p := range wals {
		rep, err := durable.ScrubFile(p)
		if err != nil {
			t.Fatalf("scrub %s: %v", p, err)
		}
		if !rep.Intact() {
			t.Errorf("ledger %s not intact after the drill: %s", filepath.Base(p), rep.Summary())
		}
	}
	spills, err := filepath.Glob(filepath.Join(dataDir, "spill", "*.dnac"))
	if err != nil || len(spills) == 0 {
		t.Fatalf("spill dir: %v files, err %v", len(spills), err)
	}
	for _, p := range spills {
		rep, err := durable.ScrubFile(p)
		if err != nil {
			t.Fatalf("scrub %s: %v", p, err)
		}
		if !rep.Intact() {
			t.Errorf("spill %s not intact after the drill: %s", filepath.Base(p), rep.Summary())
		}
	}
}

func waitExit(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("coordinator did not exit within 15s of SIGTERM")
	}
}
