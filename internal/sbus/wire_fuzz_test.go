package sbus

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeBatch feeds arbitrary bytes to the link decoder, which reads
// whatever an unauthenticated peer sends. Decoding must never panic, must
// fail only with ErrWire or ErrProtocol, and whatever it accepts must
// re-encode to a batch that decodes to the same frames. The seed corpus
// (testdata/fuzz/FuzzDecodeBatch) covers every frame kind, a traced
// message frame with an egress stamp, legacy JSON, a v4 header and a
// truncated batch.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := DecodeBatch(data)
		if err != nil {
			if !errors.Is(err, ErrWire) && !errors.Is(err, ErrProtocol) {
				t.Fatalf("error %v is neither ErrWire nor ErrProtocol", err)
			}
			return
		}
		buf := AppendBatchHeader(nil, len(frames))
		for i := range frames {
			if buf, err = AppendLinkFrame(buf, &frames[i]); err != nil {
				t.Fatalf("re-encode frame %d: %v", i, err)
			}
		}
		again, err := DecodeBatch(buf)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !reflect.DeepEqual(frames, again) {
			t.Fatalf("round trip changed the frames:\n got %+v\nwant %+v", again, frames)
		}
	})
}
