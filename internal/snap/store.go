package snap

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"poise/internal/atomicfile"
)

// Store is a content-addressed snapshot directory: each snapshot lives
// in one file named by the SHA-256 of its key, written atomically
// (atomicfile) so concurrent writers — racing fleet workers resuming
// one preempted task — can never tear a file, and a
// crash leaves either the previous content or none. Two writers racing
// on one key both produce a valid file; last rename wins, and since
// keys are content addresses both files decode to equivalent state.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a snapshot directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("snap: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Path returns the file path a key maps to.
func (s *Store) Path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".poisesnap")
}

// Save writes the snapshot under its Key, atomically. The snapshot's
// Key must be non-empty.
func (s *Store) Save(sn *Snapshot) error {
	if sn == nil || sn.Key == "" {
		return errors.New("snap: snapshot needs a key to be stored")
	}
	data, err := sn.Encode()
	if err != nil {
		return err
	}
	if err := atomicfile.WriteFile(s.Path(sn.Key), data); err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	return nil
}

// Load reads and decodes the snapshot for key. A missing file returns
// fs.ErrNotExist (wrapped); a corrupt file returns the decode error —
// callers using the store as a cache treat both as a miss.
func (s *Store) Load(key string) (*Snapshot, error) {
	data, err := os.ReadFile(s.Path(key))
	if err != nil {
		return nil, err
	}
	sn, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if sn.Key != key {
		return nil, fmt.Errorf("snap: key mismatch: file for %q holds %q", key, sn.Key)
	}
	return sn, nil
}

// Delete removes the snapshot for key (no-op when absent).
func (s *Store) Delete(key string) error {
	err := os.Remove(s.Path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}
