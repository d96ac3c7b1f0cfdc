package cluster_test

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sketch"
)

func TestManifestValidate(t *testing.T) {
	good := cluster.Manifest{Version: 1, Shards: 3, Engine: sketch.MinHash, Addrs: []string{"a", "b", "c"}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(m *cluster.Manifest)
		want string
	}{
		{"future version", func(m *cluster.Manifest) { m.Version = 2 }, "version 2 not supported"},
		{"zero shards", func(m *cluster.Manifest) { m.Shards = 0 }, "shard count 0"},
		{"empty engine", func(m *cluster.Manifest) { m.Engine = "" }, "unknown sketch engine"},
		{"bogus engine", func(m *cluster.Manifest) { m.Engine = "quantum" }, "unknown sketch engine"},
		{"addr count drift", func(m *cluster.Manifest) { m.Addrs = m.Addrs[:2] }, "2 addresses for 3 shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := good
			m.Addrs = append([]string(nil), good.Addrs...)
			tc.mut(&m)
			err := m.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestManifestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := cluster.LoadManifest(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("LoadManifest on empty dir = %v, want fs.ErrNotExist", err)
	}
	m := &cluster.Manifest{Version: 1, Shards: 2, Engine: sketch.MinHash, Addrs: []string{"http://a:1", "http://b:2"}}
	if err := cluster.SaveManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != m.Shards || got.Engine != m.Engine || len(got.Addrs) != 2 || got.Addrs[0] != m.Addrs[0] {
		t.Fatalf("round trip mangled the manifest: %+v", got)
	}
	// No temp file debris from the atomic write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("persist dir holds %d entries after save, want just the manifest", len(entries))
	}
	// Corrupt file fails loudly, not silently.
	if err := os.WriteFile(cluster.ManifestPath(dir), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.LoadManifest(dir); err == nil || !strings.Contains(err.Error(), "parse manifest") {
		t.Fatalf("LoadManifest on corrupt file = %v, want a parse error", err)
	}
}

func TestReconcileManifest(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{"http://a:1", "http://b:2", "http://c:3"}

	// First boot writes the manifest, pinning MinHash.
	m, err := cluster.ReconcileManifest(dir, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 3 || m.Engine != sketch.MinHash {
		t.Fatalf("first boot pinned %+v", m)
	}
	if _, err := os.Stat(cluster.ManifestPath(dir)); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}

	// Later boot: the pin carries.
	m, err = cluster.ReconcileManifest(dir, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine != sketch.MinHash {
		t.Fatalf("reboot lost the engine pin: %+v", m)
	}

	// Shard count drift is the fatal misroute case.
	if _, err := cluster.ReconcileManifest(dir, addrs[:2]); err == nil || !strings.Contains(err.Error(), "misroutes") {
		t.Fatalf("count drift = %v, want misroute refusal", err)
	}

	// Address moves are advisory: same count, new hosts — refreshed in place.
	moved := []string{"http://x:1", "http://y:2", "http://z:3"}
	m, err = cluster.ReconcileManifest(dir, moved)
	if err != nil {
		t.Fatal(err)
	}
	if m.Addrs[0] != "http://x:1" {
		t.Fatalf("address refresh not applied: %+v", m)
	}
	reloaded, err := cluster.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Addrs[2] != "http://z:3" {
		t.Fatalf("address refresh not persisted: %+v", reloaded)
	}
}

// TestReconcileManifestEngineRecord pins the manifest engine record as a
// constant: a cluster.json written before KMV was removed, pinning
// "minhash", still boots unchanged; one pinning "kmv" is refused at boot and
// left as it was.
func TestReconcileManifestEngineRecord(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:2"}
	write := func(engine string) string {
		dir := t.TempDir()
		raw := `{
  "version": 1,
  "shards": 2,
  "engine": "` + engine + `",
  "addrs": [
    "http://a:1",
    "http://b:2"
  ]
}
`
		if err := os.WriteFile(cluster.ManifestPath(dir), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	m, err := cluster.ReconcileManifest(write("minhash"), addrs)
	if err != nil || m.Engine != sketch.MinHash || m.Shards != 2 {
		t.Fatalf("minhash manifest = %+v, %v; want it to load", m, err)
	}

	dir := write("kmv")
	before, err := os.ReadFile(cluster.ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.ReconcileManifest(dir, addrs); err == nil || !strings.Contains(err.Error(), `unknown sketch engine "kmv"`) {
		t.Fatalf("kmv manifest = %v, want an unknown-engine refusal", err)
	}
	if after, _ := os.ReadFile(cluster.ManifestPath(dir)); string(after) != string(before) {
		t.Fatalf("refused manifest was rewritten:\n%s", after)
	}
}

func TestSaveManifestRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	bad := &cluster.Manifest{Version: 1, Shards: 0, Engine: sketch.MinHash}
	if err := cluster.SaveManifest(dir, bad); err == nil {
		t.Fatal("SaveManifest accepted an invalid manifest")
	}
	if _, err := os.Stat(filepath.Join(dir, "cluster.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("invalid save left a file behind: %v", err)
	}
}
