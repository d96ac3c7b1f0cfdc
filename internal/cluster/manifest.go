package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/sketch"
)

// manifestFile is the placement manifest's filename inside the
// coordinator's persist directory.
const manifestFile = "cluster.json"

// manifestVersion is the current manifest format version. Readers reject
// versions they do not know rather than guessing at placement semantics.
const manifestVersion = 1

// Manifest is the coordinator-side placement record: the facts that must
// not drift between runs for the shard stores to keep answering correctly.
// Placement is lake.ShardIndex(name, Shards), so Shards is load-bearing —
// restarting a cluster with a different shard count would route reads to
// shards that never held the table. Engine records the sketch engine the
// shard stores were built with; it is always sketch.MinHash (the only engine
// there is), written so manifests stay readable by older builds, and any
// other value is refused. Addrs records where the shards last lived; it is
// advisory (shards may move hosts between runs) and is overridden by
// -shard-addrs, but the address count must still match Shards.
type Manifest struct {
	Version int           `json:"version"`
	Shards  int           `json:"shards"`
	Engine  sketch.Engine `json:"engine"`
	Addrs   []string      `json:"addrs,omitempty"`
}

// Validate checks internal consistency.
func (m *Manifest) Validate() error {
	if m.Version != manifestVersion {
		return fmt.Errorf("cluster: manifest version %d not supported (want %d)", m.Version, manifestVersion)
	}
	if m.Shards < 1 {
		return fmt.Errorf("cluster: manifest shard count %d, want >= 1", m.Shards)
	}
	if m.Engine != sketch.MinHash {
		return fmt.Errorf("cluster: manifest pins unknown sketch engine %q (this build implements only %q)", m.Engine, sketch.MinHash)
	}
	if len(m.Addrs) != 0 && len(m.Addrs) != m.Shards {
		return fmt.Errorf("cluster: manifest lists %d addresses for %d shards", len(m.Addrs), m.Shards)
	}
	return nil
}

// ManifestPath is the manifest's location under a coordinator persist dir.
func ManifestPath(dir string) string { return filepath.Join(dir, manifestFile) }

// LoadManifest reads and validates dir's placement manifest. A missing
// file returns fs.ErrNotExist (first boot); anything else malformed fails
// loudly — guessing at placement corrupts answers silently.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(ManifestPath(dir))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("cluster: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: parse manifest %s: %w", ManifestPath(dir), err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w (from %s)", err, ManifestPath(dir))
	}
	return &m, nil
}

// SaveManifest validates and atomically writes dir's placement manifest
// (temp file + rename, fsync'd), creating dir if needed. A crash mid-save
// leaves either the old manifest or the new one, never a torn file.
func SaveManifest(dir string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cluster: create manifest dir: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("cluster: encode manifest: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(dir, manifestFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("cluster: write manifest: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("cluster: write manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("cluster: sync manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cluster: close manifest: %w", err)
	}
	if err := os.Rename(tmpName, ManifestPath(dir)); err != nil {
		return fmt.Errorf("cluster: install manifest: %w", err)
	}
	return nil
}

// ReconcileManifest is the coordinator-boot handshake between a persist
// directory and the serve flags: first boot writes the manifest from the
// flags; later boots check the flags against it (shard count must match)
// and refresh the advisory address list. A manifest that fails Validate —
// e.g. one pinning an engine other than MinHash — is refused.
func ReconcileManifest(dir string, addrs []string) (*Manifest, error) {
	m, err := LoadManifest(dir)
	if errors.Is(err, fs.ErrNotExist) {
		m = &Manifest{Version: manifestVersion, Shards: len(addrs), Engine: sketch.MinHash, Addrs: addrs}
		if err := SaveManifest(dir, m); err != nil {
			return nil, err
		}
		return m, nil
	}
	if err != nil {
		return nil, err
	}
	if m.Shards != len(addrs) {
		return nil, fmt.Errorf("cluster: manifest pins %d shards but %d addresses were given — placement is name-hash mod shard count, so changing the count silently misroutes every lookup; rebuild the cluster instead", m.Shards, len(addrs))
	}
	if !slices.Equal(m.Addrs, addrs) {
		m.Addrs = addrs
		if err := SaveManifest(dir, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}
