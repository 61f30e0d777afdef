package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
)

// The wire contract shared by the server, the fleet coordinator and the
// client: the headers both ends agree on, the body checksum, and the one
// JSON response writer.

// BodyChecksumHeader carries an FNV-64a hash (hex) of the response body.
// HTTP framing protects against truncation but not against bytes flipped
// in flight that happen to keep the framing valid — a mangled job ID
// inside otherwise-parseable JSON, or a silently corrupted result
// payload. The client recomputes the hash over the received body and
// treats a mismatch as a transport fault to retry, never data to act on.
const BodyChecksumHeader = "X-Dnasimd-Body-Fnv64a"

// IdempotencyKeyHeader carries the client's submission identity. Retrying
// a submit with the same key returns the originally admitted job (HTTP 200
// with IdempotencyReplayedHeader: true) instead of creating a duplicate.
const (
	IdempotencyKeyHeader      = "Idempotency-Key"
	IdempotencyReplayedHeader = "Idempotency-Replayed"
)

// BodyChecksum renders the FNV-64a of a response body for
// BodyChecksumHeader.
func BodyChecksum(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteJSON writes a JSON response with its body checksum header.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		buf = []byte(`{"error":"encode response"}`)
	}
	buf = append(buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(BodyChecksumHeader, BodyChecksum(buf))
	w.WriteHeader(code)
	w.Write(buf)
}
