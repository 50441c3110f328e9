package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ftsched/internal/arch"
	"ftsched/internal/graph"
	"ftsched/internal/spec"
)

// canonicalVersion is the canonical-form version hashed into every key.
// Bump it on any layout change: every cached key, and the hash field of
// every response, moves with it.
const canonicalVersion = 2

// canonicalEnvelope is the hashed canonical form of a request. Its Problem
// member is the digest of the model types' own deterministic encodings of
// the graph, arch, and spec (insertion order where order is semantic,
// sorted where it is not; see problemDigest), so two requests that differ
// only in JSON key order, whitespace, number spelling, or
// defaulted-vs-explicit zero fields canonicalize to the same bytes, while
// any semantic difference — including operation declaration order, which
// the schedulers' tie-breaking is sensitive to — changes them.
//
// Resource knobs (Workers, TimeoutMS, Full) are deliberately absent: the
// engines are bit-identical across them, so requests differing only there
// share one cache entry.
type canonicalEnvelope struct {
	V         int             `json:"v"` // canonicalVersion
	Kind      string          `json:"kind"`
	Heuristic string          `json:"heuristic"`
	K         int             `json:"k"`
	Seeds     int             `json:"seeds"`
	Degraded  bool            `json:"degraded"`
	NoBcast   bool            `json:"nobcast"`
	NoPress   bool            `json:"nopress"`
	Deadline  float64         `json:"deadline"`
	Problem   string          `json:"problem"`         // problemDigest of graph, arch, spec
	Extra     json.RawMessage `json:"extra,omitempty"` // kind-specific tail
}

// certifyExtra is the certify-specific canonical tail.
type certifyExtra struct {
	CertifyK int `json:"certify_k"`
}

// simulateExtra is the simulate-specific canonical tail.
type simulateExtra struct {
	Scenario    []FailureSpec `json:"scenario"`
	Iterations  int           `json:"iterations"`
	SimDeadline float64       `json:"sim_deadline"`
	Trace       bool          `json:"trace"`
}

// lengthPrefixedSum is the SHA-256 of parts, each preceded by its length as
// 8 big-endian bytes, so no two part lists share a preimage.
func lengthPrefixedSum(parts ...[]byte) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// problemDigest returns the lowercase-hex lengthPrefixedSum of the
// canonical graph, arch, and spec encodings. Two problems have equal
// digests exactly when their three canonical documents are equal.
func problemDigest(g *graph.Graph, a *arch.Architecture, sp *spec.Spec) (string, error) {
	gd, err := g.MarshalJSON()
	if err != nil {
		return "", fmt.Errorf("canonicalize graph: %w", err)
	}
	ad, err := a.MarshalJSON()
	if err != nil {
		return "", fmt.Errorf("canonicalize arch: %w", err)
	}
	sd, err := sp.MarshalJSON()
	if err != nil {
		return "", fmt.Errorf("canonicalize spec: %w", err)
	}
	sum := lengthPrefixedSum(gd, ad, sd)
	return hex.EncodeToString(sum[:]), nil
}

// internKey is the problem-interning key of a request: the
// lengthPrefixedSum of its raw graph, arch, and spec bytes. Equal raw bytes
// always decode to an equal problem, so the key is exact; different
// spellings of one problem intern apart but share a problemDigest.
func internKey(r *ScheduleRequest) string {
	sum := lengthPrefixedSum(r.Graph, r.Arch, r.Spec)
	return string(sum[:])
}

// canonicalHash builds the canonical bytes of (kind, request, problem) and
// returns their sha256 as lowercase hex. The problem must be the decoded
// form of the request's graph/arch/spec members.
func canonicalHash(kind string, r *ScheduleRequest, p *problem, extra any) (string, error) {
	env := canonicalEnvelope{
		V:         canonicalVersion,
		Kind:      kind,
		Heuristic: r.Heuristic,
		K:         r.K,
		Seeds:     r.Seeds,
		Degraded:  r.AllowDegraded,
		NoBcast:   r.NoBroadcast,
		NoPress:   r.NoPressure,
		Deadline:  r.Deadline,
		Problem:   p.digest,
	}
	if extra != nil {
		var err error
		if env.Extra, err = json.Marshal(extra); err != nil {
			return "", fmt.Errorf("canonicalize extra: %w", err)
		}
	}
	data, err := json.Marshal(env)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
