// Replica-facing surface of the rms layer: what a WAL-shipping follower
// (internal/replica) needs to rebuild a Store from a primary's checkpoint
// payload and compare states; it keeps the store converged by replaying
// tailed batches through Store.ApplyReplicated. Everything here reuses the
// exact recovery machinery of OpenDurable — same decode, same restore, same
// deterministic batch apply — so a follower's state is bit-identical to
// what the primary would recover to at the same seq.
package rms

import (
	"fmt"

	"fdrms/internal/core"
)

// NewReplicaStore rebuilds a serving Store from an encoded engine snapshot —
// the payload of a WAL checkpoint file — and returns it with the snapshot's
// dimensionality. shards tunes per-host query parallelism exactly as in
// OpenDurable (zero picks the persisted value); it never affects answers.
func NewReplicaStore(payload []byte, shards int) (*Store, int, error) {
	snap, err := core.DecodeSnapshot(payload)
	if err != nil {
		return nil, 0, fmt.Errorf("rms: decoding replica checkpoint: %w", err)
	}
	f, err := core.Restore(snap, shards)
	if err != nil {
		return nil, 0, fmt.Errorf("rms: restoring replica checkpoint: %w", err)
	}
	return NewStoreFrom(&Dynamic{f: f, dim: snap.Dim}), snap.Dim, nil
}

// Dim returns the database dimensionality the store was built with.
func (s *Store) Dim() int { return s.d.dim }

// EncodeState captures and encodes the full engine state under the writer
// lock — the byte string two bit-identical stores agree on, the currency of
// every convergence check in the replication tests and bench. This is a
// stop-the-world O(state) capture: diagnostics and tests, not hot paths.
func (s *Store) EncodeState() []byte {
	var out []byte
	s.withWriteLock(func() {
		out = core.EncodeSnapshot(nil, s.d.f.Snapshot())
	})
	return out
}

// EncodeState is Store.EncodeState against the durable store's live state
// (it does not sync or touch the log; see Checkpoint for the durable
// variant).
func (ds *DurableStore) EncodeState() []byte { return ds.store.EncodeState() }
