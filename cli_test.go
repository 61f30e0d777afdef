package dnastore

// End-to-end CLI integration: build every command once and drive the full
// tool workflow — generate → profile → simulate (calibrated) → reconstruct
// → re-cluster — over real files, asserting each stage's outputs parse and
// the reported numbers are sane.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/dataset"
	"dnastore/internal/durable"
	"dnastore/internal/faults"
	"dnastore/internal/rng"
	"dnastore/internal/store"
)

var (
	cliOnce sync.Once
	cliDir  string
	cliErr  error
)

// buildCLIs compiles the command binaries once per test process.
func buildCLIs(t *testing.T) string {
	t.Helper()
	cliOnce.Do(func() {
		cliDir, cliErr = os.MkdirTemp("", "dnastore-cli")
		if cliErr != nil {
			return
		}
		for _, tool := range []string{"dnagen", "dnaprofile", "dnasim", "dnarecon", "dnacluster", "dnabench", "dnastore", "dnasimd", "dnaload"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(cliDir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				cliErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if cliErr != nil {
		t.Fatalf("building CLIs: %v", cliErr)
	}
	return cliDir
}

func runCLI(t *testing.T, dir, tool string, args ...string) (stdout string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("%s %v: %v\nstderr: %s", tool, args, err, ee.Stderr)
		}
		t.Fatalf("%s %v: %v", tool, args, err)
	}
	return string(out)
}

func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	nanopore := filepath.Join(work, "nanopore.txt")
	refs := filepath.Join(work, "refs.txt")
	sim := filepath.Join(work, "sim.txt")
	profJSON := filepath.Join(work, "profile.json")

	// 1. Generate a small wetlab dataset.
	runCLI(t, bin, "dnagen", "-clusters", "150", "-seed", "5", "-o", nanopore)
	f, err := os.Open(nanopore)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumClusters() != 150 {
		t.Fatalf("dnagen produced %d clusters", ds.NumClusters())
	}

	// 2. Profile it, saving the calibration as JSON.
	out := runCLI(t, bin, "dnaprofile", "-in", nanopore, "-json", profJSON)
	if !strings.Contains(out, "aggregate") || !strings.Contains(out, "Top 10 second-order errors") {
		t.Errorf("dnaprofile output missing sections:\n%s", out)
	}
	// The profile is a checksummed container, not bare JSON, whose one
	// section is the profile JSON.
	frames, err := durable.ReadContainerFile(profJSON, durable.KindProfile)
	if err != nil {
		t.Fatalf("saved profile is not a readable profile container: %v", err)
	}
	var counts struct {
		RefBases     int `json:"ref_bases"`
		SubCount     int `json:"sub_count"`
		InsCount     int `json:"ins_count"`
		DelCount     int `json:"del_count"`
		LongDelBases int `json:"long_del_bases"`
	}
	if len(frames) != 1 || json.Unmarshal(frames[0].Payload, &counts) != nil || counts.RefBases == 0 {
		t.Fatalf("profile container holds no profile JSON: %d sections", len(frames))
	}
	agg := float64(counts.SubCount+counts.InsCount+counts.DelCount+counts.LongDelBases) / float64(counts.RefBases)
	if agg < 0.04 || agg > 0.09 {
		t.Errorf("saved profile aggregate = %v", agg)
	}

	// 3. Extract references, simulate with the calibrated second-order tier.
	if err := os.WriteFile(refs, []byte(refsText(ds)), 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, bin, "dnasim", "-refs", refs, "-calibrate", nanopore, "-tier", "second-order",
		"-coverage", "6", "-seed", "9", "-o", sim)
	sf, err := os.Open(sim)
	if err != nil {
		t.Fatal(err)
	}
	simDS, err := dataset.Read(sf)
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if simDS.NumClusters() != 150 || simDS.MeanCoverage() != 6 {
		t.Fatalf("dnasim produced %d clusters at coverage %v", simDS.NumClusters(), simDS.MeanCoverage())
	}

	// 4. Reconstruct both datasets; per-strand accuracy must be printed.
	recOut := runCLI(t, bin, "dnarecon", "-in", sim, "-algs", "iterative,bma", "-census")
	if !strings.Contains(recOut, "Iterative") || !strings.Contains(recOut, "per-strand") {
		t.Errorf("dnarecon output:\n%s", recOut)
	}
	if !strings.Contains(recOut, "residual") {
		t.Errorf("dnarecon census missing:\n%s", recOut)
	}

	// 5. Re-cluster the simulated dataset and verify purity is reported.
	reOut := runCLI(t, bin, "dnacluster", "-in", sim, "-dataset", "-o", filepath.Join(work, "re.txt"))
	_ = reOut // purity goes to stderr; the output dataset must parse
	rf, err := os.Open(filepath.Join(work, "re.txt"))
	if err != nil {
		t.Fatal(err)
	}
	reDS, err := dataset.Read(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if reDS.NumClusters() != 150 {
		t.Fatalf("dnacluster produced %d clusters", reDS.NumClusters())
	}
	if reDS.NumReads() < simDS.NumReads()*8/10 {
		t.Errorf("re-clustering kept only %d of %d reads", reDS.NumReads(), simDS.NumReads())
	}

	// 6. dnabench runs a single non-workbench experiment quickly.
	benchOut := runCLI(t, bin, "dnabench", "-exp", "table1.1")
	if !strings.Contains(benchOut, "Nanopore") {
		t.Errorf("dnabench table1.1 output:\n%s", benchOut)
	}
}

func TestCLIStoreRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	pool := filepath.Join(work, "pool.json")
	src := filepath.Join(work, "doc.txt")
	dst := filepath.Join(work, "out.txt")
	payload := []byte(strings.Repeat("archival payload line\n", 8))
	if err := os.WriteFile(src, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, bin, "dnastore", "put", "-pool", pool, "-key", "doc", "-file", src)
	lsOut := runCLI(t, bin, "dnastore", "ls", "-pool", pool)
	if !strings.Contains(lsOut, "doc") {
		t.Fatalf("ls output: %q", lsOut)
	}
	runCLI(t, bin, "dnastore", "get", "-pool", pool, "-key", "doc", "-o", dst, "-error", "0.02", "-coverage", "14")
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Error("dnastore round trip corrupted the payload")
	}
}

// TestCLIGetFaultInjection drives the resilient read path end to end: a
// recoverable stochastic fault clears via retry with escalated coverage,
// and an unrecoverable dead region exits non-zero after printing an
// erasure report that names the lost strands.
func TestCLIGetFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	pool := filepath.Join(work, "pool.json")
	src := filepath.Join(work, "doc.txt")
	dst := filepath.Join(work, "out.txt")
	payload := []byte(strings.Repeat("archival payload line\n", 8))
	if err := os.WriteFile(src, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, bin, "dnastore", "put", "-pool", pool, "-key", "doc", "-file", src)

	// Cluster dropout at 50%: most single passes lose too many strands,
	// but each retry re-rolls the dropout under a fresh derived seed.
	out := runCLI(t, bin, "dnastore", "get", "-pool", pool, "-key", "doc", "-o", dst,
		"-error", "0.01", "-coverage", "10", "-faults", "dropout=0.5", "-retries", "9", "-seed", "3")
	_ = out
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Error("faulted round trip corrupted the payload")
	}

	// A dead region wider than the group parity can never be recovered:
	// the command must exit non-zero and print the erasure report.
	cmd := exec.Command(filepath.Join(bin, "dnastore"), "get", "-pool", pool, "-key", "doc",
		"-o", dst, "-error", "0.01", "-coverage", "10", "-faults", "zerocov=0:8", "-retries", "1")
	outBytes, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("unrecoverable get exited zero")
	}
	stderr := string(outBytes)
	if !strings.Contains(stderr, "erasure report") {
		t.Errorf("stderr missing erasure report:\n%s", stderr)
	}
	if !strings.Contains(stderr, "unrecovered strands") {
		t.Errorf("stderr does not name unrecovered strands:\n%s", stderr)
	}
}

func TestCLIFastqFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	base := filepath.Join(t.TempDir(), "gen")
	runCLI(t, bin, "dnagen", "-clusters", "20", "-format", "fastq", "-o", base)
	fasta, err := os.ReadFile(base + ".fasta")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(fasta), ">ref-0") {
		t.Errorf("FASTA output malformed: %q", string(fasta[:40]))
	}
	fastq, err := os.ReadFile(base + ".fastq")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(fastq), "@cluster-0/read-0") {
		t.Errorf("FASTQ output malformed: %q", string(fastq[:40]))
	}
}

func refsText(ds *dataset.Dataset) string {
	var sb strings.Builder
	for _, ref := range ds.References() {
		sb.WriteString(string(ref))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCLICheckpointCrashDrill kills dnasim mid-run (the -crash-after drill
// exits like a SIGKILL after N durable commits), tears the checkpoint's
// tail the way a crash tears a file, then reruns and demands the resumed
// output be byte-identical to an uninterrupted run.
func TestCLICheckpointCrashDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	refs := filepath.Join(work, "refs.txt")
	golden := filepath.Join(work, "golden.txt")
	out := filepath.Join(work, "out.txt")
	ckpt := filepath.Join(work, "run.ckpt")

	var sb strings.Builder
	for _, ref := range channel.RandomReferences(60, 80, 17) {
		sb.WriteString(string(ref))
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(refs, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	simArgs := []string{"-refs", refs, "-coverage", "5", "-sub", "0.02", "-del", "0.01", "-seed", "9"}

	runCLI(t, bin, "dnasim", append(simArgs, "-o", golden)...)
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}

	// Crash after 20 committed clusters.
	crash := exec.Command(filepath.Join(bin, "dnasim"),
		append(simArgs, "-o", out, "-checkpoint", ckpt, "-crash-after", "20")...)
	crashOut, err := crash.CombinedOutput()
	if err == nil {
		t.Fatalf("crash drill exited zero:\n%s", crashOut)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("crashed run left an output file")
	}

	// A real crash can also tear the frame being appended: keep the first
	// half (header + committed clusters) and cut somewhere in the tail.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	keep := len(data) / 2
	torn := append(append([]byte(nil), data[:keep]...), faults.TornWrite(data[keep:], rng.New(3))...)
	if err := os.WriteFile(ckpt, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: must report the resume, finish, and remove the checkpoint.
	resume := exec.Command(filepath.Join(bin, "dnasim"), append(simArgs, "-o", out, "-checkpoint", ckpt)...)
	resumeOut, err := resume.CombinedOutput()
	if err != nil {
		t.Fatalf("resume failed: %v\n%s", err, resumeOut)
	}
	if !strings.Contains(string(resumeOut), "resuming") {
		t.Errorf("resume did not report journaled progress:\n%s", resumeOut)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed dataset is not byte-identical to the uninterrupted run")
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Error("completed run left its checkpoint behind")
	}

	// Resuming against different parameters must be refused.
	wrong := exec.Command(filepath.Join(bin, "dnasim"),
		append(simArgs, "-o", out, "-checkpoint", ckpt, "-crash-after", "20")...)
	if wrongOut, err := wrong.CombinedOutput(); err == nil {
		_ = wrongOut
	}
	other := exec.Command(filepath.Join(bin, "dnasim"),
		"-refs", refs, "-coverage", "5", "-sub", "0.02", "-del", "0.01", "-seed", "10",
		"-o", out, "-checkpoint", ckpt)
	if mixOut, err := other.CombinedOutput(); err == nil {
		t.Errorf("checkpoint from seed 9 accepted by seed 10 run:\n%s", mixOut)
	}
}

// TestCLICheckpointRejectsOtherChannel: a dnasim journal names the exact
// channel and coverage flags it was written under. A rerun with other
// rates, other stages, another truncate MIN or a calibration file edited
// in place — each of which Describe renders the same — is refused as a
// different run instead of resuming.
func TestCLICheckpointRejectsOtherChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	refs := filepath.Join(work, "refs.txt")
	var sb strings.Builder
	for _, ref := range channel.RandomReferences(50, 80, 23) {
		sb.WriteString(string(ref))
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(refs, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	// The calibration file is rewritten in place between the two runs.
	calib := filepath.Join(work, "calib.txt")
	runCLI(t, bin, "dnagen", "-clusters", "40", "-seed", "5", "-o", calib)
	regen := func() { runCLI(t, bin, "dnagen", "-clusters", "40", "-seed", "6", "-o", calib) }
	calibrated := []string{"-calibrate", calib, "-tier", "naive"}
	for _, tc := range []struct {
		name         string
		first, rerun []string
		edit         func()
	}{
		{"sub", []string{"-sub", "0.01"}, []string{"-sub", "0.30", "-ins", "0.1"}, nil},
		{"stages", []string{"-stages", "synthesis=0.01"}, []string{"-stages", "sequencing=0.2"}, nil},
		{"truncate", []string{"-faults", "truncate=0.3:0.5"}, []string{"-faults", "truncate=0.3:0.9"}, nil},
		{"calibrate", calibrated, calibrated, regen},
	} {
		out := filepath.Join(work, tc.name+".txt")
		common := []string{"-refs", refs, "-coverage", "5", "-seed", "3", "-o", out,
			"-checkpoint", filepath.Join(work, tc.name+".ckpt")}
		runCLIFail(t, bin, "dnasim", append(append(common, tc.first...), "-crash-after", "10")...)
		if tc.edit != nil {
			tc.edit()
		}
		if _, stderr := runCLIFail(t, bin, "dnasim", append(common, tc.rerun...)...); !strings.Contains(stderr, "different run") {
			t.Errorf("%s: rerun failed for another reason:\n%s", tc.name, stderr)
		}
	}
}

// TestCLIBlankStages: a blank -stages value means no stages, as a blank
// -faults value means no faults, so it neither conflicts with -sub nor
// selects the identity pipeline.
func TestCLIBlankStages(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	refs := filepath.Join(t.TempDir(), "refs.txt")
	var sb strings.Builder
	for _, ref := range channel.RandomReferences(20, 60, 3) {
		sb.WriteString(string(ref))
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(refs, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	common := []string{"-refs", refs, "-coverage", "4", "-seed", "5", "-sub", "0.01"}
	plain := runCLI(t, bin, "dnasim", common...)
	if blank := runCLI(t, bin, "dnasim", append(common, "-stages", " ")...); blank != plain {
		t.Error("-stages ' ' -sub 0.01 gives other bytes than -sub 0.01")
	}
}

// TestCLIRefusesEmptyRead: deleting every base of a short strand makes an
// empty read, which the cluster text format cannot carry (its blank line
// ends the cluster). dnasim fails and leaves no output file instead of
// writing one that dataset.Read rejects.
func TestCLIRefusesEmptyRead(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	refs := filepath.Join(work, "refs.txt")
	if err := os.WriteFile(refs, []byte("AC\nGT\nTTA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(work, "sim.txt")
	_, stderr := runCLIFail(t, bin, "dnasim", "-refs", refs, "-del", "0.5", "-coverage", "6", "-seed", "1", "-o", out)
	if !strings.Contains(stderr, "empty read") {
		t.Errorf("dnasim failed for another reason:\n%s", stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("output file left behind: %v", err)
	}
}

// TestCLISimRejectsBadCoverage: a coverage mean that is NaN, infinite,
// negative or past int32 is a usage error for every coverage model.
// dnasim must exit 1 naming it and leave no output file, rather than
// panic in every cluster, write an all-erasure dataset, or never return
// (a Poisson draw with a NaN mean) — hence the timeout.
func TestCLISimRejectsBadCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	refs := filepath.Join(work, "refs.txt")
	if err := os.WriteFile(refs, []byte("ACGTAACGACGGTCAATG\nTTTTAAAACCGGATCGAT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, tc := range [][2]string{
		{"fixed", "-3"}, {"fixed", "NaN"}, {"fixed", "1e300"}, {"negbin", "+Inf"},
		{"normal", "-3"}, {"poisson", "NaN"}, {"poisson", "-Inf"},
	} {
		out := filepath.Join(work, fmt.Sprintf("sim%d.txt", i))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, filepath.Join(bin, "dnasim"), "-refs", refs, "-sub", "0.01",
			"-coverage-model", tc[0], "-coverage", tc[1], "-seed", "1", "-o", out)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		code := cmd.ProcessState.ExitCode()
		if timedOut || code != 1 || !strings.Contains(stderr.String(), "dnasim: coverage mean") ||
			!strings.Contains(stderr.String(), "out of range") {
			t.Errorf("-coverage-model %s -coverage %s: exit %d (timed out: %t), stderr:\n%s", tc[0], tc[1], code, timedOut, stderr.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("-coverage-model %s -coverage %s: output file left behind: %v", tc[0], tc[1], err)
		}
	}
}

// TestCLIGetRejectsBadSequencingFlags: an error rate outside [0,1], a
// coverage that is not in (0, MaxInt32], a negative retry count and a
// backoff that is not finite and above 1 are usage errors. dnastore get
// must exit 1 naming the flag, before it sequences anything, and write no
// output file — rather than never return (a NaN coverage), blame the pool
// after three attempts, or quietly run with a default. Hence the timeout.
func TestCLIGetRejectsBadSequencingFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	pool := filepath.Join(work, "pool.json")
	src := filepath.Join(work, "doc.txt")
	if err := os.WriteFile(src, []byte(strings.Repeat("archival payload line\n", 8)), 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, bin, "dnastore", "put", "-pool", pool, "-key", "doc", "-file", src)
	for i, tc := range [][2]string{
		{"-coverage", "NaN"}, {"-coverage", "-5"}, {"-coverage", "Inf"}, {"-coverage", "1e300"},
		{"-error", "NaN"}, {"-error", "1.5"}, {"-error", "-0.1"},
		{"-backoff", "NaN"}, {"-backoff", "-2"}, {"-backoff", "1"}, {"-backoff", "Inf"},
		{"-retries", "-3"},
	} {
		out := filepath.Join(work, fmt.Sprintf("out%d.txt", i))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, filepath.Join(bin, "dnastore"), "get", "-pool", pool, "-key", "doc",
			"-o", out, tc[0], tc[1])
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		code := cmd.ProcessState.ExitCode()
		if timedOut || code != 1 || !strings.Contains(stderr.String(), "dnastore: "+tc[0]+" ") ||
			strings.Contains(stderr.String(), "sequencing at") {
			t.Errorf("%s %s: exit %d (timed out: %t), stderr:\n%s", tc[0], tc[1], code, timedOut, stderr.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s %s: output file left behind: %v", tc[0], tc[1], err)
		}
	}
}

// TestCLISimdRejectsBadFlags: a dnasimd flag value the service would
// replace with its default, or a negative count or duration, exits 2 and
// names the flag before the listener binds. A negative -stall-after or
// -probe-interval still means "disabled", and the daemon serves.
func TestCLISimdRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := filepath.Join(buildCLIs(t), "dnasimd")
	for _, tc := range [][2]string{
		{"-queue", "-5"}, {"-queue", "0"}, {"-workers", "-1"}, {"-max-attempts", "0"},
		{"-stall-after", "0"}, {"-drain-grace", "0"}, {"-job-timeout", "-1s"},
		{"-breaker-failures", "0"}, {"-breaker-cooldown", "-1s"},
		{"-shard-clusters", "-1"}, {"-hedge-after", "-1s"}, {"-max-shard-attempts", "-1"},
		{"-probe-interval", "0"}, {"-cache-entries", "-1"}, {"-cache-bytes", "-1"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", tc[0], tc[1])
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		code := cmd.ProcessState.ExitCode()
		if timedOut || code != 2 || !strings.Contains(stderr.String(), "dnasimd: "+tc[0]+" ") ||
			strings.Contains(stderr.String(), "listening on") {
			t.Errorf("%s %s: exit %d (timed out: %t), stderr:\n%s", tc[0], tc[1], code, timedOut, stderr.String())
		}
	}

	// Disabled stall detection and probing: the daemon gets as far as
	// binding its listener.
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-stall-after", "-1s", "-probe-interval", "-1s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	serving := make(chan struct{})
	readDone := make(chan struct{})
	var out bytes.Buffer // read once readDone is closed
	go func() {
		defer close(readDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			out.WriteString(sc.Text() + "\n")
			if strings.Contains(sc.Text(), "listening on") {
				close(serving)
				io.Copy(io.Discard, stderr)
			}
		}
	}()
	select {
	case <-serving:
	case <-readDone:
	case <-time.After(30 * time.Second):
	}
	cmd.Process.Kill()
	<-readDone
	cmd.Wait()
	if !strings.Contains(out.String(), "listening on") {
		t.Errorf("dnasimd -stall-after -1s -probe-interval -1s did not serve, stderr:\n%s", out.String())
	}
}

// TestCLILoadRejectsBadFlags: a dnaload rate, count, fraction or timeout
// out of range exits 2 and names the flag before any server starts,
// instead of panicking (-jobs -1), firing nothing (-jobs 0) or firing
// every arrival at once (-rps 0).
func TestCLILoadRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := filepath.Join(buildCLIs(t), "dnaload")
	for _, tc := range [][2]string{
		{"-rps", "0"}, {"-rps", "-3"}, {"-rps", "NaN"}, {"-rps", "+Inf"},
		{"-jobs", "-1"}, {"-jobs", "0"}, {"-fleet-nodes", "-1"},
		{"-huge-frac", "1.5"}, {"-dup-frac", "-0.1"}, {"-cancel-frac", "NaN"},
		{"-workers", "-1"}, {"-queue", "0"}, {"-call-timeout", "0"}, {"-run-timeout", "-1s"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, bin, tc[0], tc[1])
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		code := cmd.ProcessState.ExitCode()
		if timedOut || code != 2 || !strings.Contains(stderr.String(), "dnaload: "+tc[0]+" ") || stdout.Len() > 0 {
			t.Errorf("%s %s: exit %d (timed out: %t), stdout:\n%s\nstderr:\n%s",
				tc[0], tc[1], code, timedOut, stdout.String(), stderr.String())
		}
	}
}

// TestCLIBenchFailsOnFailedWrite: a CSV file dnabench cannot write (its
// path is a directory) is reported and fails the run with exit 1, though
// the experiment still prints; a negative -clusters is a usage error.
func TestCLIBenchFailsOnFailedWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	csvDir := t.TempDir()
	if err := os.Mkdir(filepath.Join(csvDir, "table1_1.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(bin, "dnabench"), "-exp", "table1.1", "-csv", csvDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 1 || !strings.Contains(stderr.String(), "is a directory") ||
		!strings.Contains(stdout.String(), "Nanopore") {
		t.Errorf("unwritable CSV: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	code, stderr2 := runCLIFail(t, bin, "dnabench", "-exp", "table1.1", "-clusters", "-1")
	if code != 2 || !strings.Contains(stderr2, "-clusters must not be negative") {
		t.Errorf("-clusters -1: exit %d, stderr:\n%s", code, stderr2)
	}
}

// TestCLIGenRefusesEmptyRead: a channel harsh enough to delete a short
// strand whole makes an empty read, which the cluster text format cannot
// carry. dnagen must fail on it and leave no output file, empty or not.
func TestCLIGenRefusesEmptyRead(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	out := filepath.Join(t.TempDir(), "g.txt")
	_, stderr := runCLIFail(t, bin, "dnagen", "-clusters", "200", "-len", "3", "-error", "0.6", "-o", out)
	if !strings.Contains(stderr, "empty read") {
		t.Errorf("dnagen failed for another reason:\n%s", stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("output file left behind: %v", err)
	}
}

// TestCLIClusterBadInputLeavesNoOutput: dnacluster reads -in before it
// writes -o, so a malformed dataset fails the run without creating the
// output file.
func TestCLIClusterBadInputLeavesNoOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	in := filepath.Join(work, "bad.txt")
	if err := os.WriteFile(in, []byte("ACGT\n*****************************\nACGN\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(work, "c.out")
	runCLIFail(t, bin, "dnacluster", "-in", in, "-dataset", "-o", out)
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("output file left behind: %v", err)
	}
}

// TestCLIClusterRejectsNegativeFlags: a negative -k, -signatures,
// -threshold or -max-ref-dist is a usage error. dnacluster must exit 2
// before it reads -in and leave no output file, rather than fall back to a
// default or, for -max-ref-dist, write a dataset of erasures.
func TestCLIClusterRejectsNegativeFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	in := filepath.Join(work, "ds.txt")
	sep := "*****************************\n"
	data := "ACGTAACGACGGTCAATG\n" + sep + "ACGTAACGACGGTCAATG\nACGTAACGACGTCAATG\n\n" +
		"TTTTAAAACCGGATCGAT\n" + sep + "TTTTAAAACCGGATCGAT\nTTTAAAACCGGATCGAT\n\n"
	if err := os.WriteFile(in, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"-k", "-signatures", "-threshold", "-max-ref-dist"} {
		out := filepath.Join(work, "c"+flag+".out")
		code, stderr := runCLIFail(t, bin, "dnacluster", "-in", in, "-dataset", flag, "-1", "-o", out)
		if code != 2 || !strings.Contains(stderr, flag+" must not be negative") {
			t.Errorf("%s -1: exit %d, stderr:\n%s", flag, code, stderr)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s -1: output file left behind: %v", flag, err)
		}
	}
	// The same input with every flag at zero (the defaults) clusters.
	runCLI(t, bin, "dnacluster", "-in", in, "-dataset", "-k", "0", "-signatures", "0", "-threshold", "0",
		"-max-ref-dist", "0", "-o", filepath.Join(work, "ok.out"))
}

// TestCLIReconRefusesErasedCluster: a cluster with no reads reconstructs
// to an empty strand, which a reference file cannot hold (its blank line
// would shift every later strand up one). dnarecon -out must fail, name
// the strand and leave no file.
func TestCLIReconRefusesErasedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	in := filepath.Join(work, "er.txt")
	sep := "*****************************\n"
	data := "ACGTAACGAC\n" + sep + "ACGTAACGAC\nACGTAACGAC\n\n" +
		"GGCCAATTGG\n" + sep + "\n" +
		"TTTTAAAACC\n" + sep + "TTTTAAAACC\n\n"
	if err := os.WriteFile(in, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(work, "rec.txt")
	_, stderr := runCLIFail(t, bin, "dnarecon", "-in", in, "-out", out, "-algs", "bma")
	if !strings.Contains(stderr, "strand 1 is empty") {
		t.Errorf("dnarecon failed for another reason:\n%s", stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("output file left behind: %v", err)
	}
}

// TestCLIScrub drives scrub/repair end to end: a clean pool scrubs green,
// injected bit rot is detected and repaired in place, torn writes are
// reported as truncation, and legacy JSON pools load with a warning.
func TestCLIScrub(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	pool := filepath.Join(work, "pool.dnac")
	src := filepath.Join(work, "doc.txt")
	dst := filepath.Join(work, "out.txt")
	payload := []byte(strings.Repeat("scrubbed payload line\n", 8))
	if err := os.WriteFile(src, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, bin, "dnastore", "put", "-pool", pool, "-key", "doc", "-file", src)

	// Clean scrub exits zero and reports healthy checksums.
	out := runCLI(t, bin, "dnastore", "scrub", work)
	if !strings.Contains(out, "all checksums ok") {
		t.Errorf("clean scrub output:\n%s", out)
	}

	// Inject bit rot inside the frame body, within the parity budget.
	data, err := os.ReadFile(pool)
	if err != nil {
		t.Fatal(err)
	}
	bodyStart := 12 + 2 + len("pool.json") + 8
	rotted := faults.BitRotRange(data, bodyStart, len(data)-20, 6, rng.New(21))
	if err := os.WriteFile(pool, rotted, 0o644); err != nil {
		t.Fatal(err)
	}

	// Detection: scrub must see every injected fault and exit non-zero.
	detect := exec.Command(filepath.Join(bin, "dnastore"), "scrub", pool)
	detectOut, err := detect.CombinedOutput()
	if err == nil {
		t.Fatalf("scrub of a rotted pool exited zero:\n%s", detectOut)
	}
	if !strings.Contains(string(detectOut), "repairable") {
		t.Errorf("scrub did not flag repairable damage:\n%s", detectOut)
	}

	// Repair restores the container; a follow-up scrub and get both pass.
	repairOut := runCLI(t, bin, "dnastore", "scrub", "-repair", pool)
	if !strings.Contains(repairOut, "repaired") {
		t.Errorf("repair output:\n%s", repairOut)
	}
	if out := runCLI(t, bin, "dnastore", "scrub", pool); !strings.Contains(out, "all checksums ok") {
		t.Errorf("post-repair scrub:\n%s", out)
	}
	runCLI(t, bin, "dnastore", "get", "-pool", pool, "-key", "doc", "-o", dst,
		"-error", "0.01", "-coverage", "12")
	if got, _ := os.ReadFile(dst); !bytes.Equal(got, payload) {
		t.Error("payload corrupted after repair")
	}

	// A torn write is reported as truncation and is not repairable.
	clean, err := os.ReadFile(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pool, clean[:len(clean)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	tornCmd := exec.Command(filepath.Join(bin, "dnastore"), "scrub", pool)
	tornOut, err := tornCmd.CombinedOutput()
	if err == nil {
		t.Fatalf("scrub of a torn pool exited zero:\n%s", tornOut)
	}
	if !strings.Contains(string(tornOut), "TRUNCATED") {
		t.Errorf("torn pool not reported as truncated:\n%s", tornOut)
	}
	if err := os.WriteFile(pool, clean, 0o644); err != nil {
		t.Fatal(err)
	}

	// Legacy pools: scrub names them, ls warns but still works.
	legacy := filepath.Join(work, "legacy.json")
	p, _, err := store.LoadFile(pool)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := os.Create(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(lf); err != nil {
		t.Fatal(err)
	}
	lf.Close()
	if out := runCLI(t, bin, "dnastore", "scrub", legacy); !strings.Contains(out, "legacy format") {
		t.Errorf("legacy scrub output:\n%s", out)
	}
	lsCmd := exec.Command(filepath.Join(bin, "dnastore"), "ls", "-pool", legacy)
	lsOut, err := lsCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ls on legacy pool: %v\n%s", err, lsOut)
	}
	if !strings.Contains(string(lsOut), "legacy JSON pool") {
		t.Errorf("ls did not warn about the legacy pool:\n%s", lsOut)
	}
	if !strings.Contains(string(lsOut), "doc") {
		t.Errorf("legacy pool did not list its key:\n%s", lsOut)
	}
}

// TestCLICheckpointRefusesPool: pointing dnasim's -checkpoint at a pool
// container fails the run and leaves the pool readable.
func TestCLICheckpointRefusesPool(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	pool := filepath.Join(work, "pool.dnac")
	src := filepath.Join(work, "doc.txt")
	refs := filepath.Join(work, "refs.txt")
	if err := os.WriteFile(src, []byte("pool payload\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(refs, []byte(string(channel.RandomReferences(1, 60, 4)[0])+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, bin, "dnastore", "put", "-pool", pool, "-key", "doc", "-file", src)

	runCLIFail(t, bin, "dnasim", "-refs", refs, "-checkpoint", pool, "-o", filepath.Join(work, "sim.txt"))
	if out := runCLI(t, bin, "dnastore", "ls", "-pool", pool); !strings.Contains(out, "doc") {
		t.Errorf("pool lost its key after the refused checkpoint:\n%s", out)
	}
}

// TestCLIScrubJournals: the container kind, not the file name, makes a
// journal. A checkpoint copied to a name without .ckpt scrubs clean, and
// -repair leaves a journal with a repairable frame as it is.
func TestCLIScrubJournals(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()
	path := filepath.Join(work, "run.ckpt")
	refs := channel.RandomReferences(3, 40, 8)
	ckpt, err := channel.OpenCheckpoint(path, "x", refs, 1, "d")
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Commit(0, refs[:1]); err != nil {
		t.Fatal(err)
	}
	ckpt.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	plain := filepath.Join(work, "journal")
	if err := os.WriteFile(plain, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runCLI(t, bin, "dnastore", "scrub", plain); !strings.Contains(out, "all checksums ok") {
		t.Errorf("renamed checkpoint scrub:\n%s", out)
	}

	// One flipped byte in the last frame's body is within parity 8.
	rotted := append([]byte(nil), data...)
	rotted[len(rotted)-6] ^= 0x55
	if err := os.WriteFile(plain, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _ := exec.Command(filepath.Join(bin, "dnastore"), "scrub", "-repair", plain).CombinedOutput()
	if !strings.Contains(string(out), "repairable") || strings.Contains(string(out), "repaired:") {
		t.Errorf("scrub -repair of a journal:\n%s", out)
	}
	if got, err := os.ReadFile(plain); err != nil || !bytes.Equal(got, rotted) {
		t.Errorf("scrub -repair rewrote a journal (err %v)", err)
	}
}

// runCLIFail runs a tool expecting a non-zero exit; it returns the exit
// code and stderr.
func runCLIFail(t *testing.T, dir, tool string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		t.Fatalf("%s %v unexpectedly succeeded", tool, args)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v: %v", tool, args, err)
	}
	return ee.ExitCode(), stderr.String()
}

// TestCLITimeout: -timeout bounds both long-running commands. An already
// expired deadline is the deterministic worst case: dnasim must still
// write its (empty) partial dataset and exit 124, and dnastore get must
// report a timeout — told to stop — rather than data loss.
func TestCLITimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI timeout drill builds binaries")
	}
	bin := buildCLIs(t)
	work := t.TempDir()

	refs := filepath.Join(work, "refs.txt")
	if err := os.WriteFile(refs, []byte(strings.Repeat("ACGTACGTACGTACGTACGTACGTACGTACGT\n", 50)), 0o644); err != nil {
		t.Fatal(err)
	}
	simOut := filepath.Join(work, "sim.txt")
	code, stderr := runCLIFail(t, bin, "dnasim", "-refs", refs, "-coverage", "4", "-sub", "0.01",
		"-timeout", "1ns", "-o", simOut)
	if code != 124 {
		t.Errorf("dnasim timeout exit = %d, want 124\nstderr: %s", code, stderr)
	}
	if _, err := os.Stat(simOut); err != nil {
		t.Errorf("timed-out dnasim did not write the partial dataset: %v", err)
	}

	pool := filepath.Join(work, "pool.json")
	payload := filepath.Join(work, "payload.bin")
	if err := os.WriteFile(payload, []byte("timeout drill payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, bin, "dnastore", "put", "-pool", pool, "-key", "k", "-file", payload)
	code, stderr = runCLIFail(t, bin, "dnastore", "get", "-pool", pool, "-key", "k",
		"-o", filepath.Join(work, "out.bin"), "-timeout", "1ns")
	if code != 1 {
		t.Errorf("dnastore get timeout exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "timed out") {
		t.Errorf("dnastore get timeout not reported as such:\nstderr: %s", stderr)
	}
}
