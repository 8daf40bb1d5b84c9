package cliutil

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"h2privacy/internal/experiment"
	"h2privacy/internal/h2"
	"h2privacy/internal/h2/h2sync"
)

var updateCommands = flag.Bool("update-commands", false,
	"rewrite testdata/commands.golden and testdata/flags.golden from this build")

// commandRun is one pinned invocation of a built command. Each runs in a
// fresh directory, so every file it leaves there is one of its artifacts.
type commandRun struct {
	args []string // command name first
	// stderr pins stderr too; left false wherever stderr carries wall-clock
	// values (progress lines, perf tables, panic stacks).
	stderr bool
	// manifest names an artifact that is a run manifest: it is pinned after
	// Manifest.StripWallClock.
	manifest string
}

var commandRuns = []commandRun{
	{args: []string{"h2attack", "-seed", "8"}, stderr: true},
	{args: []string{"h2attack", "-seed", "1", "-timeline", "-pcap", "f", "-trace", "t", "-trace-format", "jsonl",
		"-features-out", "f.csv", "-check", "-check-report", "r"}, stderr: true},
	{args: []string{"h2attack", "-seed", "3", "-trials", "8", "-parallel", "2", "-check", "-adaptive", "-features-out", "f.csv"}},
	{args: []string{"h2attack", "-seed", "4242", "-fleet", "100", "-budget", "1", "-adaptive", "-check"}, stderr: true},
	{args: []string{"h2attack", "-seed", "4242", "-fleet", "100", "-budget", "1", "-adaptive", "-check", "-trials", "4"}},
	{args: []string{"h2attack", "-seed", "8", "-trials", "6", "-parallel", "2", "-chaos", "panic:1,hang:3", "-quarantine-out", "q.json"}},
	{args: []string{"h2attack", "-seed", "8", "-trials", "6", "-parallel", "2", "-chaos", "panic:1,hang:3", "-quarantine-out", "q.json", "-strict"}},
	{args: []string{"h2attack", "-trials", "1", "-seed", "11", "-chaos", "panic:0"}},
	{args: []string{"h2bench", "-trials", "2", "-quiet", "-check", "-manifest", "m.json", "-features-out", "f.csv", "fig3", "table2"},
		stderr: true, manifest: "m.json"},
	{args: []string{"h2bench", "-trials", "2", "-quiet", "-check", "-manifest", "m.json", "-features-out", "f.csv", "-csv", "fig3", "table2"},
		stderr: true, manifest: "m.json"},
	{args: []string{"h2bench", "-list"}, stderr: true},
	{args: []string{"h2bench", "-trials", "2", "-quiet", "nosuchexperiment"}, stderr: true},
}

// buildCommands compiles h2attack, h2bench and h2serve into a temporary
// directory and returns it.
func buildCommands(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	cmd := exec.Command(goBin, "build", "-o", dir,
		"h2privacy/cmd/h2attack", "h2privacy/cmd/h2bench", "h2privacy/cmd/h2serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// exitCode runs cmd to completion and returns its exit status.
func exitCode(t *testing.T, cmd *exec.Cmd) int {
	t.Helper()
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ee):
		return ee.ExitCode()
	default:
		t.Fatalf("%v: %v", cmd.Args, err)
		return -1
	}
}

// pinRun runs one invocation and returns its golden lines: exit code,
// stdout digest, stderr digest when pinned, and one digest per artifact.
func pinRun(t *testing.T, bin string, r commandRun) []string {
	t.Helper()
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, r.args[0]), r.args[1:]...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &stdout, &stderr
	code := exitCode(t, cmd)
	key := strings.Join(r.args, " ")
	lines := []string{
		fmt.Sprintf("%s\texit\t%d", key, code),
		fmt.Sprintf("%s\tstdout\t%s", key, digest(stdout.Bytes())),
	}
	if r.stderr {
		lines = append(lines, fmt.Sprintf("%s\tstderr\t%s", key, digest(stderr.Bytes())))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == r.manifest {
			data = strippedManifest(t, data)
		}
		lines = append(lines, fmt.Sprintf("%s\tfile %s\t%s", key, e.Name(), digest(data)))
	}
	return lines
}

func strippedManifest(t *testing.T, raw []byte) []byte {
	t.Helper()
	var m experiment.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	m.StripWallClock()
	var b bytes.Buffer
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// pinServe starts h2serve on an ephemeral port, fetches two objects over
// the repository's own HTTP/2 client, interrupts it and pins the exit
// code, stdout (with the bound address masked), the responses and the
// check report. The feature export stamps wall time, so only its presence
// is checked.
func pinServe(t *testing.T, bin string) []string {
	t.Helper()
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-check", "-features-out", "f.jsonl"}
	cmd := exec.Command(filepath.Join(bin, "h2serve"), args...)
	var stderr bytes.Buffer
	cmd.Dir, cmd.Stderr = dir, &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	rd := bufio.NewReader(pipe)
	first, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("h2serve printed no address: %v (stderr %q)", err, stderr.String())
	}
	addr := first[strings.LastIndex(first, " ")+1 : len(first)-1]
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := h2sync.NewClient(nc, h2.Config{}, [32]byte{7})
	if err != nil {
		t.Fatal(err)
	}
	var resps []string
	for _, path := range []string{"/", "/polls/2020-presidential", "/no/such/object"} {
		resp, err := cli.Get("www.isidewith.test", path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resps = append(resps, fmt.Sprintf("%s %d %s", path, resp.Status, digest(resp.Body)))
	}
	cli.Close()
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	code := 0
	var ee *exec.ExitError
	if err := cmd.Wait(); errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	stdout := strings.Replace(first, addr, "ADDR", 1) + string(rest)
	var report []string
	for _, l := range strings.Split(stderr.String(), "\n") {
		if strings.Contains(l, "invariant checks") {
			report = append(report, l)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "f.jsonl")); err != nil {
		t.Errorf("h2serve wrote no feature export: %v", err)
	}
	key := "h2serve " + strings.Join(args, " ")
	return []string{
		fmt.Sprintf("%s\texit\t%d", key, code),
		fmt.Sprintf("%s\tstdout\t%s", key, digest([]byte(stdout))),
		fmt.Sprintf("%s\tresponses\t%s", key, strings.Join(resps, "; ")),
		fmt.Sprintf("%s\tcheck report\t%s", key, strings.Join(report, "; ")),
	}
}

var (
	flagLine    = regexp.MustCompile(`^  -(\S+)`)
	defaultText = regexp.MustCompile(`\(default (.*)\)$`)
)

// flagList parses a command's -h output into "name=default" entries; zero
// defaults print no "(default ...)" and read as empty.
func flagList(t *testing.T, bin, name string) []string {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, name), "-h")
	cmd.Stdout, cmd.Stderr = &out, &out
	if code := exitCode(t, cmd); code != 0 {
		t.Fatalf("%s -h exited %d", name, code)
	}
	var flags []string
	cur := -1
	for _, l := range strings.Split(out.String(), "\n") {
		if m := flagLine.FindStringSubmatch(l); m != nil {
			flags = append(flags, name+"\t-"+m[1]+"\t")
			cur = len(flags) - 1
			continue
		}
		if m := defaultText.FindStringSubmatch(l); m != nil && cur >= 0 {
			flags[cur] += m[1]
		}
	}
	return flags
}

// TestCommandOutputsPinned builds the three commands and pins, for a fixed
// list of invocations, the SHA-256 of stdout, the exit code and the digest
// of every file each run writes, plus each command's flag list. A change
// to how the commands register, arm or finish their instruments must keep
// every line; -update-commands rewrites the goldens for an intended change.
func TestCommandOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the commands")
	}
	bin := buildCommands(t)
	var got []string
	for _, r := range commandRuns {
		got = append(got, pinRun(t, bin, r)...)
	}
	got = append(got, pinServe(t, bin)...)
	var flags []string
	for _, name := range []string{"h2attack", "h2bench", "h2serve"} {
		flags = append(flags, flagList(t, bin, name)...)
	}
	sort.Strings(flags)
	compareGolden(t, "testdata/commands.golden", got)
	compareGolden(t, "testdata/flags.golden", flags)
}

func compareGolden(t *testing.T, path string, got []string) {
	t.Helper()
	text := strings.Join(got, "\n") + "\n"
	if *updateCommands {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-commands to record)", err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	wantSet := make(map[string]bool, len(want))
	for _, l := range want {
		wantSet[l] = true
	}
	gotSet := make(map[string]bool, len(got))
	for _, l := range got {
		gotSet[l] = true
		if !wantSet[l] {
			t.Errorf("%s: unpinned line %q", path, l)
		}
	}
	for _, l := range want {
		if !gotSet[l] {
			t.Errorf("%s: pinned line missing %q", path, l)
		}
	}
}
