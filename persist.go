package sknn

import (
	"fmt"
	"io"

	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/store"
)

// SaveTable writes the outsourced table — ciphertext matrix, cluster
// index, tombstones, stable ids, and domain metadata — to w in the
// internal/store snapshot format, capturing a consistent state even
// under concurrent mutation. The file contains no plaintext and no
// secret key: it is exactly what C1 is allowed to hold, so
// encrypt-once/query-many across process restarts costs no privacy.
// Reload it with LoadTable and the matching private key.
func (s *System) SaveTable(w io.Writer) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	// A sharded system saves the merged whole table (canonical ascending-
	// id order), so the on-disk artifact is shard-count independent: load
	// it back with any Config.Shards, or store.Split it for a
	// multi-process topology.
	snap, err := s.snapshot()
	if err != nil {
		return err
	}
	if err := store.Write(w, &s.sk.PublicKey, snap, s.domainBits); err != nil {
		return fmt.Errorf("sknn: %w", err)
	}
	return nil
}

// LoadTable rebuilds a System around a snapshot written by SaveTable,
// skipping Alice's expensive setup entirely: no key generation and —
// the point of persistence — no re-encryption (the load path performs
// zero Paillier encryptions; paillier.EncryptCalls meters this and the
// regression suite asserts it). The snapshot must have been written
// under sk's public key; a mismatch fails with store.ErrKeyMismatch
// before any cloud is stood up.
//
// The index mode is a property of the file, not the config: a clustered
// snapshot loads clustered. Config.Index may confirm but not contradict
// it (re-clustering ciphertexts would need the plaintext the snapshot
// deliberately does not contain — rebuild via System.Compact after
// loading instead). Config.Key, KeyBits, and FeatureColumns are ignored:
// the key arrives explicitly and the feature split rides in the file.
//
// Config.Shards, by contrast, is free: the snapshot is a whole table,
// and the load path (re)shards it in memory without re-encryption —
// saving at S shards and loading at S′ is how an owner re-balances a
// deployment.
func LoadTable(r io.Reader, sk *paillier.PrivateKey, cfg Config) (*System, error) {
	if sk == nil {
		return nil, fmt.Errorf("sknn: LoadTable needs the private key")
	}
	if err := normalizeConfig(&cfg); err != nil {
		return nil, err
	}
	snap, err := store.Read(r)
	if err != nil {
		return nil, fmt.Errorf("sknn: %w", err)
	}
	if snap.Sharded() {
		return nil, fmt.Errorf("sknn: file is shard %d of %d, not a whole table — store.Merge the partition first (or serve it with sknnd shard)",
			snap.ShardIndex, snap.ShardCount)
	}
	if err := snap.VerifyKey(&sk.PublicKey); err != nil {
		return nil, fmt.Errorf("sknn: %w", err)
	}
	// store.Read validates format-level ranges; the engine's own
	// invariants are enforced here. attrBits beyond dataset.MaxAttrBits
	// would overflow the Insert domain guard and the plaintext oracle,
	// and an understated l would re-expose the step 3(e) sentinel
	// collision the headroom bit exists to prevent — a file that
	// disagrees with DomainBits was not written by this engine.
	attrBits := snap.Table.AttrBits
	if attrBits < 1 || attrBits > dataset.MaxAttrBits {
		return nil, fmt.Errorf("sknn: snapshot attribute domain %d bits outside [1,%d]",
			attrBits, dataset.MaxAttrBits)
	}
	if want := dataset.DomainBits(attrBits, snap.Table.FeatureM); snap.DomainBits != want {
		return nil, fmt.Errorf("sknn: snapshot domain size l=%d inconsistent with attrBits=%d, featureM=%d (want %d)",
			snap.DomainBits, attrBits, snap.Table.FeatureM, want)
	}
	if err := core.CheckDomainBits(&sk.PublicKey, snap.DomainBits); err != nil {
		return nil, fmt.Errorf("sknn: %w", err)
	}
	tbl, err := core.RestoreTable(&sk.PublicKey, snap.Table)
	if err != nil {
		return nil, fmt.Errorf("sknn: %w", err)
	}
	if cfg.Index == IndexClustered && !tbl.Clustered() {
		return nil, fmt.Errorf("sknn: snapshot has no cluster index (a loaded table cannot be clustered without plaintext)")
	}
	return assemble(sk, tbl, snap.DomainBits, cfg, wrapRandom(cfg.Random))
}
