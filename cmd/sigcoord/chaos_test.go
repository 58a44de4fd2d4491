// Multi-process chaos matrix: real sigserver and sigcoord binaries, real
// TCP, real kill -9. The in-process fault-injection suites (internal/
// cluster, internal/coord) cover the fine-grained failure modes; this
// file proves the acceptance scenario end to end — a three-node cluster
// at R=2 keeps answering /v1/topk with at least 90% of the keyset through
// the SIGKILL of any node, reports the dead site, and heals when the node
// returns. The tests build binaries and run seconds of wall clock, so
// they skip under -short.
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sigstream/internal/client"
	"sigstream/internal/cluster"
)

// buildBinaries compiles sigserver and sigcoord once into a temp dir.
func buildBinaries(t *testing.T) (sigserver, sigcoord string) {
	t.Helper()
	dir := t.TempDir()
	sigserver = filepath.Join(dir, "sigserver")
	sigcoord = filepath.Join(dir, "sigcoord")
	for bin, pkg := range map[string]string{
		sigserver: "sigstream/cmd/sigserver",
		sigcoord:  "sigstream/cmd/sigcoord",
	} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = moduleRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return sigserver, sigcoord
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

// freePort reserves an ephemeral port and releases it for the process
// under test.
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

// proc is one managed child process.
type proc struct {
	cmd *exec.Cmd
}

// startProc launches bin and guarantees cleanup kill.
func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if testing.Verbose() {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd}
	t.Cleanup(p.kill)
	return p
}

// kill SIGKILLs the process and reaps it; safe to call twice.
func (p *proc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
		_, _ = p.cmd.Process.Wait()
	}
}

// clusterUnderTest is three sigserver processes plus one sigcoord.
type clusterUnderTest struct {
	sigserver, sigcoord string
	nodeAddrs           []string // host:port
	sites               []string // http://host:port
	snapDirs, walDirs   []string
	nodes               []*proc
	coordAddr           string
	coordProc           *proc
	topo                *cluster.Topology
}

const (
	chaosPartitions = 8
	chaosReplicas   = 2
	chaosKeys       = 200
)

// startCluster builds binaries, launches 3 nodes and the coordinator,
// and waits for everything to come ready.
func startCluster(t *testing.T) *clusterUnderTest {
	t.Helper()
	cu := &clusterUnderTest{}
	cu.sigserver, cu.sigcoord = buildBinaries(t)
	for i := 0; i < 3; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
		cu.nodeAddrs = append(cu.nodeAddrs, addr)
		cu.sites = append(cu.sites, "http://"+addr)
		cu.snapDirs = append(cu.snapDirs, t.TempDir())
		cu.walDirs = append(cu.walDirs, t.TempDir())
		cu.nodes = append(cu.nodes, cu.startNode(t, i))
	}
	for _, site := range cu.sites {
		waitFor(t, site+"/readyz", http.StatusOK, 15*time.Second)
	}
	topo, err := cluster.NewTopology(cu.sites, chaosPartitions, chaosReplicas)
	if err != nil {
		t.Fatal(err)
	}
	cu.topo = topo

	cu.coordAddr = fmt.Sprintf("127.0.0.1:%d", freePort(t))
	cu.coordProc = cu.startCoord(t)
	waitFor(t, "http://"+cu.coordAddr+"/healthz", http.StatusOK, 15*time.Second)
	return cu
}

// startNode launches node i on its fixed address, snapshot dir and WAL
// dir, so a restart is the same node rejoining, state included: every
// acked insert is in the log, even one no snapshot covered before the
// kill.
func (cu *clusterUnderTest) startNode(t *testing.T, i int) *proc {
	t.Helper()
	return startProc(t, cu.sigserver,
		"-addr", cu.nodeAddrs[i],
		"-mem", "262144",
		"-tenant-mem", "65536",
		"-snapshot-dir", cu.snapDirs[i],
		"-wal-dir", cu.walDirs[i],
		"-snapshot-interval", "200ms",
		"-log-level", "error",
	)
}

// startCoord launches the coordinator against the full site list.
func (cu *clusterUnderTest) startCoord(t *testing.T) *proc {
	t.Helper()
	return startProc(t, cu.sigcoord,
		"-addr", cu.coordAddr,
		"-sites", strings.Join(cu.sites, ","),
		"-partitions", fmt.Sprint(chaosPartitions),
		"-replicas", fmt.Sprint(chaosReplicas),
		"-interval", "150ms",
		"-fetch-timeout", "1s",
		"-retry-attempts", "2",
		"-retry-base", "20ms",
		"-breaker-trip", "2",
		"-breaker-cooldown", "300ms",
		"-close-periods",
		"-log-level", "error",
	)
}

// load writes chaosKeys keys to every replica of their partition.
func (cu *clusterUnderTest) load(t *testing.T) {
	t.Helper()
	ctx := t.Context()
	httpc := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < chaosKeys; i++ {
		key := fmt.Sprintf("key-%03d", i)
		p := cu.topo.PartitionKey(key)
		ns := cluster.PartitionNamespace(p)
		for _, site := range cu.topo.ReplicaSites(p) {
			c := client.New(site, httpc)
			if _, err := c.Tenant(ns).Insert(ctx, key); err != nil {
				t.Fatalf("insert %q on %s: %v", key, site, err)
			}
		}
	}
}

// topk fetches the coordinator's view, returning the keyset and status.
func (cu *clusterUnderTest) topk(t *testing.T) (map[string]bool, int) {
	t.Helper()
	resp, err := http.Get("http://" + cu.coordAddr + "/v1/topk?k=1000")
	if err != nil {
		return nil, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var view struct {
		Entries []struct {
			Key string `json:"key"`
		} `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode topk: %v", err)
	}
	keys := make(map[string]bool, len(view.Entries))
	for _, e := range view.Entries {
		keys[e.Key] = true
	}
	return keys, resp.StatusCode
}

// status fetches the coordinator's cluster status via the typed client.
func (cu *clusterUnderTest) status(t *testing.T) (client.ClusterStatus, error) {
	t.Helper()
	c := client.New("http://"+cu.coordAddr, &http.Client{Timeout: 5 * time.Second})
	return c.ClusterStatus(t.Context())
}

// recall is the fraction of the loaded keyset present in the view.
func recall(keys map[string]bool) float64 {
	hit := 0
	for i := 0; i < chaosKeys; i++ {
		if keys[fmt.Sprintf("key-%03d", i)] {
			hit++
		}
	}
	return float64(hit) / chaosKeys
}

// waitFor polls url until it answers want.
func waitFor(t *testing.T, url string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s to answer %d (last err %v)", url, want, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// waitForView polls the coordinator until the view reaches the wanted
// recall.
func (cu *clusterUnderTest) waitForView(t *testing.T, minRecall float64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		keys, code := cu.topk(t)
		if code == http.StatusOK && recall(keys) >= minRecall {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("view never reached recall %.2f (last: %d keys, status %d)",
				minRecall, len(keys), code)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosClusterNodeDeathMatrix is the acceptance scenario: with three
// nodes at R=2, kill -9 of each node in turn must leave /v1/topk
// answering with at least 90% of the keyset (the 0.10 accuracy gate),
// the dead site visible in /v1/cluster/status, and the restarted node
// rejoining automatically.
func TestChaosClusterNodeDeathMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos matrix: skipped under -short")
	}
	cu := startCluster(t)
	cu.load(t)
	cu.waitForView(t, 1.0, 20*time.Second)

	for victim := range cu.nodes {
		t.Logf("killing node %d (%s)", victim, cu.sites[victim])
		cu.nodes[victim].kill()

		// The dead site must surface in status within a few rounds.
		deadline := time.Now().Add(15 * time.Second)
		for {
			st, err := cu.status(t)
			if err == nil && st.Round != nil {
				unhealthy := false
				for _, s := range st.Round.Sites {
					if s.Site == cu.sites[victim] && s.Health != "healthy" {
						unhealthy = true
					}
				}
				if unhealthy {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d death never surfaced in /v1/cluster/status", victim)
			}
			time.Sleep(50 * time.Millisecond)
		}

		// Availability through the death: the view keeps serving within
		// the accuracy gate. Every partition keeps a live replica at
		// R=2, so in practice recall stays 1.0; the gate allows 0.90.
		keys, code := cu.topk(t)
		if code != http.StatusOK {
			t.Fatalf("topk unavailable after node %d death: status %d", victim, code)
		}
		if r := recall(keys); r < 0.90 {
			t.Fatalf("recall %.2f after node %d death, want >= 0.90", r, victim)
		}

		// Restart: same address, same snapshot and WAL dirs. The breaker
		// must probe it back in and the site report healthy again.
		cu.nodes[victim] = cu.startNode(t, victim)
		waitFor(t, cu.sites[victim]+"/readyz", http.StatusOK, 15*time.Second)
		deadline = time.Now().Add(15 * time.Second)
		for {
			st, err := cu.status(t)
			healthy := 0
			if err == nil && st.Round != nil {
				for _, s := range st.Round.Sites {
					if s.Health == "healthy" {
						healthy++
					}
				}
			}
			if healthy == len(cu.sites) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never rejoined: %d/%d healthy", victim, healthy, len(cu.sites))
			}
			time.Sleep(50 * time.Millisecond)
		}
		cu.waitForView(t, 1.0, 15*time.Second)
	}
}

// TestChaosClusterCoordinatorDeath SIGKILLs the coordinator itself and
// restarts it: the replacement must rebuild the full view from the sites
// within a round, because the sites — not the coordinator — own the data.
func TestChaosClusterCoordinatorDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos matrix: skipped under -short")
	}
	cu := startCluster(t)
	cu.load(t)
	cu.waitForView(t, 1.0, 20*time.Second)

	cu.coordProc.kill()
	cu.coordAddr = fmt.Sprintf("127.0.0.1:%d", freePort(t))
	cu.coordProc = cu.startCoord(t)
	waitFor(t, "http://"+cu.coordAddr+"/healthz", http.StatusOK, 15*time.Second)
	cu.waitForView(t, 1.0, 20*time.Second)

	st, err := cu.status(t)
	if err != nil {
		t.Fatal(err)
	}
	if st.View == nil || st.View.Epoch < 1 {
		t.Fatalf("restarted coordinator has no committed view: %+v", st.View)
	}
}
