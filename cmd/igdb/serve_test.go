package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startCLI starts the test binary as a long-running igdb CLI process. At
// cleanup the process is killed unless the test has reaped it, and its
// output is logged if the test failed; the output buffer is read only
// after Wait, once the copying goroutines are done.
func startCLI(t *testing.T, name string, args ...string) *exec.Cmd {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "IGDB_E2E_CHILD=1")
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		if t.Failed() {
			t.Logf("%s output:\n%s", name, out.String())
		}
	})
	return cmd
}

// freeAddrs returns n distinct loopback addresses nothing listens on. Each
// listener stays open until all are chosen, so no port is handed out twice.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// serveHealth is the part of GET /healthz this test reads.
type serveHealth struct {
	Status       string `json:"status"`
	Role         string `json:"role"`
	LastFetchErr string `json:"last_fetch_error"`
}

var testClient = &http.Client{Timeout: 5 * time.Second}

func getHealth(base string) (serveHealth, error) {
	var h serveHealth
	resp, err := testClient.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

// waitHealth polls /healthz until ready reports true, failing after 30 s.
func waitHealth(t *testing.T, base string, ready func(serveHealth) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := getHealth(base)
		if err == nil && ready(h) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became ready: last health %+v, err %v", base, h, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// postSQL sends one statement to POST /sql and returns the status code
// and, on 200, the decoded rows.
func postSQL(t *testing.T, base, sql string) (int, [][]interface{}) {
	t.Helper()
	resp, err := testClient.Post(base+"/sql", "text/plain", strings.NewReader(sql))
	if err != nil {
		t.Fatalf("POST %s/sql: %v", base, err)
	}
	defer resp.Body.Close()
	var body struct {
		Rows [][]interface{} `json:"rows"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decoding %s/sql: %v", base, err)
		}
	}
	return resp.StatusCode, body.Rows
}

// TestServeLeaderFollower runs `igdb serve -leader` and `igdb serve
// -follow` as real processes. The follower must answer from its
// replicated snapshot, keep answering every query after the leader is
// SIGKILLed until its own poll loop reports the loss in /healthz, and exit
// 0 on SIGTERM.
func TestServeLeaderFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test starts two server processes")
	}
	dir := t.TempDir()
	if stdout, stderr, code := runCLI(t, "collect", "-dir", dir, "-seed", "42"); code != 0 {
		t.Fatalf("collect exited %d: %s%s", code, stdout, stderr)
	}

	addrs := freeAddrs(t, 2)
	leaderAddr, followerAddr := addrs[0], addrs[1]
	leaderURL, followerURL := "http://"+leaderAddr, "http://"+followerAddr
	leader := startCLI(t, "leader", "serve", "-dir", dir, "-leader", "-addr", leaderAddr)
	waitHealth(t, leaderURL, func(h serveHealth) bool { return h.Role == "leader" })
	follower := startCLI(t, "follower", "serve", "-follow", leaderURL, "-addr", followerAddr,
		"-replica-poll", "200ms")
	waitHealth(t, followerURL, func(h serveHealth) bool { return h.Status == "ok" })

	const query = `SELECT COUNT(*) FROM phys_nodes`
	code, want := postSQL(t, leaderURL, query)
	if code != http.StatusOK || len(want) != 1 {
		t.Fatalf("leader /sql: status %d, rows %v", code, want)
	}
	if code, got := postSQL(t, followerURL, query); code != http.StatusOK || len(got) != 1 || got[0][0] != want[0][0] {
		t.Fatalf("follower /sql: status %d, rows %v; leader answered %v", code, got, want)
	}

	if err := leader.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = leader.Wait()

	// Only the follower's poll loop notices the leader is gone; until it
	// does, the follower must keep serving its last good snapshot.
	waitHealth(t, followerURL, func(h serveHealth) bool {
		if code, _ := postSQL(t, followerURL, query); code != http.StatusOK {
			t.Fatalf("follower /sql returned %d after the leader was killed", code)
		}
		return h.LastFetchErr != ""
	})

	if err := follower.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := follower.Wait(); err != nil {
		t.Fatalf("follower did not exit cleanly on SIGTERM: %v", err)
	}
}
