package channel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sync"

	"dnastore/internal/dna"
	"dnastore/internal/durable"
)

// Checkpointing lets a long simulation be killed at any moment and resumed
// to byte-identical output. Each cluster's reads depend only on (seed,
// cluster index) — the split-RNG scheme in simulateCluster — so completed
// clusters can be journaled as they finish and replayed verbatim on the
// next run, regardless of worker scheduling on either side of the crash.

// frame names inside a checkpoint journal.
const (
	ckptHeaderFrame  = "sim-header"
	ckptClusterFrame = "cluster"
)

// ckptParity protects journaled clusters against bit rot on top of the
// per-frame checksums.
const ckptParity = 8

// RefsHash fingerprints a reference set (FNV-1a over the strands with zero
// separators), so a checkpoint refuses to resume against different input.
func RefsHash(refs []dna.Strand) uint64 {
	h := fnv.New64a()
	for _, ref := range refs {
		h.Write([]byte(ref))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Checkpoint journals completed clusters of one simulation run. It is safe
// for concurrent Commit calls from simulation workers.
type Checkpoint struct {
	// OnCommit, when set, is called after every durably committed cluster
	// with the number of commits so far this process — a hook for crash
	// drills and progress reporting. It runs outside the internal lock.
	OnCommit func(commits int)

	mu      sync.Mutex
	j       *durable.Journal
	done    map[int][]dna.Strand
	commits int
}

// ckptHeader is the identity a checkpoint is bound to.
type ckptHeader struct {
	name     string
	desc     string
	seed     uint64
	refsHash uint64
	clusters uint64
}

func (h ckptHeader) encode() []byte {
	buf := make([]byte, 0, 32+len(h.name)+len(h.desc))
	buf = binary.AppendUvarint(buf, uint64(len(h.name)))
	buf = append(buf, h.name...)
	buf = binary.AppendUvarint(buf, uint64(len(h.desc)))
	buf = append(buf, h.desc...)
	buf = binary.LittleEndian.AppendUint64(buf, h.seed)
	buf = binary.LittleEndian.AppendUint64(buf, h.refsHash)
	buf = binary.LittleEndian.AppendUint64(buf, h.clusters)
	return buf
}

func decodeCkptHeader(b []byte) (ckptHeader, error) {
	var h ckptHeader
	s, err := takeString(&b)
	if err != nil {
		return h, err
	}
	h.name = s
	if s, err = takeString(&b); err != nil {
		return h, err
	}
	h.desc = s
	if len(b) != 24 {
		return h, fmt.Errorf("channel: checkpoint header has %d trailing bytes, want 24", len(b))
	}
	h.seed = binary.LittleEndian.Uint64(b)
	h.refsHash = binary.LittleEndian.Uint64(b[8:])
	h.clusters = binary.LittleEndian.Uint64(b[16:])
	return h, nil
}

// takeString pops a uvarint-length-prefixed string off *b.
func takeString(b *[]byte) (string, error) {
	n, sz := binary.Uvarint(*b)
	if sz <= 0 || n > uint64(len(*b)-sz) {
		return "", errors.New("channel: malformed checkpoint string")
	}
	s := string((*b)[sz : sz+int(n)])
	*b = (*b)[sz+int(n):]
	return s, nil
}

// encodeCluster serialises one committed cluster frame.
func encodeCluster(index int, reads []dna.Strand) []byte {
	size := 16
	for _, r := range reads {
		size += 10 + len(r)
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(index))
	buf = binary.AppendUvarint(buf, uint64(len(reads)))
	for _, r := range reads {
		buf = binary.AppendUvarint(buf, uint64(len(r)))
		buf = append(buf, r...)
	}
	return buf
}

func decodeCluster(b []byte) (int, []dna.Strand, error) {
	idx, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, nil, errors.New("channel: malformed cluster index")
	}
	b = b[sz:]
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)) {
		return 0, nil, errors.New("channel: malformed cluster read count")
	}
	b = b[sz:]
	reads := make([]dna.Strand, 0, n)
	for k := uint64(0); k < n; k++ {
		l, sz := binary.Uvarint(b)
		if sz <= 0 || l > uint64(len(b)-sz) {
			return 0, nil, errors.New("channel: malformed cluster read")
		}
		reads = append(reads, dna.Strand(b[sz:sz+int(l)]))
		b = b[sz+int(l):]
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("channel: %d trailing bytes after cluster reads", len(b))
	}
	return int(idx), reads, nil
}

// OpenCheckpoint opens (or creates) the checkpoint journal at path for a
// run identified by (name, refs, seed, desc). An existing journal resumes:
// its intact cluster frames become the Completed set. A journal written by
// a different run — different seed, references, simulator description or
// dataset name — is rejected rather than silently mixed in. A journal too
// torn to even read its header (crash during creation) is recreated from
// scratch. A file at path that is not a checkpoint journal — a non-container
// or a container of another kind — is never overwritten or truncated.
func OpenCheckpoint(path, name string, refs []dna.Strand, seed uint64, desc string) (*Checkpoint, error) {
	want := ckptHeader{name: name, desc: desc, seed: seed,
		refsHash: RefsHash(refs), clusters: uint64(len(refs))}

	if _, err := os.Stat(path); err == nil {
		ckpt, err := resumeCheckpoint(path, want)
		if err == nil || !errors.Is(err, durable.ErrTruncated) {
			return ckpt, err
		}
		// Torn before the first cluster frame survived header-readability:
		// nothing to resume, start over.
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	j, err := durable.CreateJournal(path, durable.KindCheckpoint, durable.Options{Parity: ckptParity})
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{j: j, done: make(map[int][]dna.Strand)}
	if err := j.Append(ckptHeaderFrame, want.encode()); err != nil {
		j.Close()
		return nil, err
	}
	return c, nil
}

// resumeCheckpoint loads an existing journal and validates its identity.
func resumeCheckpoint(path string, want ckptHeader) (*Checkpoint, error) {
	j, frames, err := durable.OpenJournal(path, durable.KindCheckpoint)
	if err != nil {
		if errors.Is(err, durable.ErrNotContainer) {
			return nil, fmt.Errorf("channel: %s is not a checkpoint journal (refusing to overwrite): %w", path, err)
		}
		return nil, err
	}
	if len(frames) == 0 || frames[0].Name != ckptHeaderFrame {
		// Header frame lost to the tear: recreate.
		j.Close()
		return nil, durable.ErrTruncated
	}
	got, err := decodeCkptHeader(frames[0].Payload)
	if err != nil {
		j.Close()
		return nil, err
	}
	if got != want {
		j.Close()
		return nil, fmt.Errorf("channel: checkpoint %s belongs to a different run (have name=%q seed=%d desc=%q over %d clusters; want name=%q seed=%d desc=%q over %d clusters)",
			path, got.name, got.seed, got.desc, got.clusters, want.name, want.seed, want.desc, want.clusters)
	}
	c := &Checkpoint{j: j, done: make(map[int][]dna.Strand)}
	for _, f := range frames[1:] {
		if f.Name != ckptClusterFrame {
			continue
		}
		idx, reads, err := decodeCluster(f.Payload)
		if err != nil {
			j.Close()
			return nil, err
		}
		if idx >= 0 && uint64(idx) < want.clusters {
			c.done[idx] = reads
		}
	}
	return c, nil
}

// Completed returns how many clusters the checkpoint already holds.
func (c *Checkpoint) Completed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Done reports whether cluster i is already journaled, returning its reads.
func (c *Checkpoint) Done(i int) ([]dna.Strand, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	reads, ok := c.done[i]
	return reads, ok
}

// Commit durably journals cluster i. It returns once the frame is fsynced,
// so a crash after Commit never loses the cluster. Committing an
// already-journaled cluster is a no-op.
func (c *Checkpoint) Commit(i int, reads []dna.Strand) error {
	c.mu.Lock()
	if _, ok := c.done[i]; ok {
		c.mu.Unlock()
		return nil
	}
	if err := c.j.Append(ckptClusterFrame, encodeCluster(i, reads)); err != nil {
		c.mu.Unlock()
		return err
	}
	c.done[i] = reads
	c.commits++
	commits := c.commits
	hook := c.OnCommit
	c.mu.Unlock()
	if hook != nil {
		hook(commits)
	}
	return nil
}

// Close closes the underlying journal. The file stays on disk for resume.
func (c *Checkpoint) Close() error { return c.j.Close() }
