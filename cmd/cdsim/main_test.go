package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestHelperProcess is not a test: it is cdsim itself, re-executed from
// the compiled test binary so the kill-and-resume test needs no
// separate build step. Guarded by an environment marker so a normal
// `go test` run skips it.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("CDSIM_HELPER") != "1" {
		t.Skip("helper process, not a test")
	}
	os.Args = append([]string{"cdsim"}, strings.Fields(os.Getenv("CDSIM_ARGS"))...)
	flag.CommandLine = flag.NewFlagSet("cdsim", flag.ExitOnError)
	main()
	os.Exit(0) // suppress the test framework's PASS line
}

func runHelper(t *testing.T, args string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess")
	cmd.Env = append(os.Environ(), "CDSIM_HELPER=1", "CDSIM_ARGS="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// TestKillAndResume is the crash-safety integration test: it starts a
// checkpointed cdsim run, SIGKILLs it mid-flight (no chance to flush or
// clean up), resumes from the surviving snapshot with -resume, and
// requires the resumed run's complete output — metrics and the full
// transfer trace — to be byte-identical to an uninterrupted run's.
//
// The matrix crosses the shard-worker knob: the victim is killed at
// P ∈ {1, 8} and each snapshot is also resumed at the other width,
// because a snapshot carries the lane streams but no worker count —
// crash-safety and worker-invariance must compose.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	base := "-n 192 -k 300 -algo randomized -policy rarest-first -credit 1 -seed 41 -trace"

	ref, stderr, err := runHelper(t, base)
	if err != nil {
		t.Fatalf("reference run: %v\n%s", err, stderr)
	}
	if !strings.Contains(ref, "completion time:") {
		t.Fatalf("reference run produced no metrics:\n%s", ref)
	}

	for _, m := range []struct{ killP, resumeP int }{{1, 1}, {8, 8}, {8, 1}} {
		m := m
		t.Run(fmt.Sprintf("killP=%d_resumeP=%d", m.killP, m.resumeP), func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess")
			cmd.Env = append(os.Environ(), "CDSIM_HELPER=1",
				fmt.Sprintf("CDSIM_ARGS=%s -shardworkers %d -checkpoint %s -ckevery 1", base, m.killP, ckpt))
			var victimOut bytes.Buffer
			cmd.Stdout = &victimOut
			cmd.Stderr = &victimOut
			if err := cmd.Start(); err != nil {
				t.Fatalf("start victim: %v", err)
			}
			// Kill as soon as the first snapshot lands. If the run wins the
			// race and exits first, the snapshot still exists and resume
			// still works — the test just degrades from "mid-flight" to
			// "post-completion".
			deadline := time.Now().Add(30 * time.Second)
			for {
				if st, err := os.Stat(ckpt); err == nil && st.Size() > 0 {
					break
				}
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatalf("no checkpoint appeared within 30s; victim output:\n%s", victimOut.String())
				}
				time.Sleep(time.Millisecond)
			}
			killed := cmd.Process.Signal(syscall.SIGKILL) == nil
			werr := cmd.Wait()
			if killed && werr == nil {
				t.Logf("victim completed before SIGKILL landed; resuming from its last snapshot anyway")
			}

			resumed, stderr, err := runHelper(t,
				fmt.Sprintf("%s -shardworkers %d -resume %s", base, m.resumeP, ckpt))
			if err != nil {
				t.Fatalf("resumed run: %v\n%s", err, stderr)
			}
			if resumed != ref {
				t.Errorf("resumed output differs from uninterrupted run\n--- uninterrupted ---\n%s\n--- resumed ---\n%s",
					head(ref, 40), head(resumed, 40))
			}
		})
	}
}

// TestOpenFlagValidation pins the multi-error contract of the
// open-system flags: every problem in one invocation is reported in
// one round trip, and open flags without -arrivals are rejected.
func TestOpenFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	cases := []struct {
		name string
		args string
		want []string
	}{
		{"all bad at once",
			"-n 64 -k 8 -algo randomized -arrivals -3 -depart 2 -seedpolicy both -linger -1",
			[]string{
				`unknown -seedpolicy "both"`,
				"Rate = -3",
				"EarlyExit = 2",
				"Linger = -1",
			}},
		{"open flags without arrivals",
			"-n 64 -k 8 -algo randomized -depart 0.5 -seedpolicy stay -linger 2",
			[]string{
				"-depart requires -arrivals",
				"-seedpolicy requires -arrivals",
				"-linger requires -arrivals",
			}},
		{"arrivals with reps",
			"-n 64 -k 8 -algo randomized -arrivals 1 -reps 4",
			[]string{"-arrivals requires -reps 1"}},
		{"arrivals with default algorithm",
			"-n 64 -k 8 -arrivals 1",
			[]string{"open-system Arrivals requires"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, err := runHelper(t, tc.args)
			if err == nil {
				t.Fatalf("cdsim %s succeeded, want rejection", tc.args)
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr, w) {
					t.Errorf("stderr missing %q:\n%s", w, stderr)
				}
			}
		})
	}
}

// TestCheckpointIntervalValidation: -checkpoint with an interval below
// 1 would never write a snapshot, so it is a usage error (exit 2).
func TestCheckpointIntervalValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	for _, every := range []string{"0", "-5"} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		_, stderr, err := runHelper(t, "-n 16 -k 8 -checkpoint "+path+" -ckevery "+every)
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("-ckevery %s: err %v, want exit status 2", every, err)
		}
		if !strings.Contains(stderr, "-ckevery "+every+" must be >= 1") {
			t.Errorf("-ckevery %s: stderr %q", every, stderr)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("-ckevery %s: snapshot file exists (stat: %v)", every, err)
		}
	}
}

// TestKillAndResumeOpen extends the crash-safety bar to open-system
// runs: SIGKILL mid-flash-crowd (arrival stream, departure queue, and
// watchdog state all live), resume from the surviving snapshot, and
// require the verdict, every open metric, and the full transfer trace
// to be byte-identical to an uninterrupted run — again crossing the
// shard-worker knob, since a snapshot carries lanes but no worker
// count.
func TestKillAndResumeOpen(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	base := "-n 513 -k 64 -algo randomized -policy rarest-first -arrivals 4 -depart 0.1 -linger 2 -seed 41 -trace"

	ref, stderr, err := runHelper(t, base)
	if err != nil {
		t.Fatalf("reference run: %v\n%s", err, stderr)
	}
	if !strings.Contains(ref, "verdict:              drained") {
		t.Fatalf("reference flash crowd did not drain:\n%s", head(ref, 15))
	}

	for _, m := range []struct{ killP, resumeP int }{{1, 1}, {8, 8}, {8, 1}} {
		m := m
		t.Run(fmt.Sprintf("killP=%d_resumeP=%d", m.killP, m.resumeP), func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess")
			cmd.Env = append(os.Environ(), "CDSIM_HELPER=1",
				fmt.Sprintf("CDSIM_ARGS=%s -shardworkers %d -checkpoint %s -ckevery 1", base, m.killP, ckpt))
			var victimOut bytes.Buffer
			cmd.Stdout = &victimOut
			cmd.Stderr = &victimOut
			if err := cmd.Start(); err != nil {
				t.Fatalf("start victim: %v", err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				if st, err := os.Stat(ckpt); err == nil && st.Size() > 0 {
					break
				}
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatalf("no checkpoint appeared within 30s; victim output:\n%s", victimOut.String())
				}
				time.Sleep(time.Millisecond)
			}
			killed := cmd.Process.Signal(syscall.SIGKILL) == nil
			werr := cmd.Wait()
			if killed && werr == nil {
				t.Logf("victim completed before SIGKILL landed; resuming from its last snapshot anyway")
			}

			resumed, stderr, err := runHelper(t,
				fmt.Sprintf("%s -shardworkers %d -resume %s", base, m.resumeP, ckpt))
			if err != nil {
				t.Fatalf("resumed run: %v\n%s", err, stderr)
			}
			if resumed != ref {
				t.Errorf("resumed open run differs from uninterrupted run\n--- uninterrupted ---\n%s\n--- resumed ---\n%s",
					head(ref, 40), head(resumed, 40))
			}
		})
	}
}

// TestResumeRejectsCorruptSnapshot flips one byte of a valid snapshot
// and requires -resume to fail loudly instead of decoding a wrong run.
func TestResumeRejectsCorruptSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	base := "-n 48 -k 40 -algo randomized -seed 11"
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if _, stderr, err := runHelper(t, base+" -checkpoint "+ckpt+" -ckevery 1"); err != nil {
		t.Fatalf("checkpointed run: %v\n%s", err, stderr)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(ckpt, data, 0o600); err != nil {
		t.Fatal(err)
	}
	_, stderr, err := runHelper(t, base+" -resume "+ckpt)
	if err == nil {
		t.Fatal("resume accepted a corrupted snapshot")
	}
	if !strings.Contains(stderr, "corrupt") {
		t.Errorf("corruption error does not say corrupt: %s", stderr)
	}
}

func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
		return strings.Join(lines, "\n") + "\n…"
	}
	return s
}
