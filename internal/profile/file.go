package profile

import (
	"bytes"

	"dnastore/internal/durable"
)

// profileFrame names the serialized profile inside its container.
const profileFrame = "profile.json"

// WriteFile atomically writes the profile to path as a durable container
// with default Reed–Solomon parity — a calibration run is expensive enough
// that its artifact deserves checksums.
func (p *ErrorProfile) WriteFile(path string) error {
	return durable.WriteContainerFile(path, durable.KindProfile,
		durable.Options{Parity: durable.DefaultParity},
		func(w *durable.Writer) error {
			var buf bytes.Buffer
			if err := p.WriteJSON(&buf); err != nil {
				return err
			}
			return w.WriteFrame(profileFrame, buf.Bytes())
		})
}
