package msg

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeBinary feeds arbitrary bytes to the binary message decoder,
// which reads payloads received from federated peers. The schema-guided
// decode and the plain decode must agree (the same message, or both an
// ErrCodec), and whatever decodes must re-encode to bytes that decode to
// the same message. The seed corpus (testdata/fuzz/FuzzDecodeBinary)
// covers a schema-conforming message, a foreign type, every field type,
// an unknown type byte and a truncated payload.
func FuzzDecodeBinary(f *testing.F) {
	s := vitalsSchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, perr := DecodeBinary(data)
		guided, gerr := s.DecodeBinary(data)
		if (perr == nil) != (gerr == nil) {
			t.Fatalf("plain decode err %v, schema-guided err %v", perr, gerr)
		}
		if perr != nil {
			if !errors.Is(perr, ErrCodec) || !errors.Is(gerr, ErrCodec) {
				t.Fatalf("errors %v / %v are not ErrCodec", perr, gerr)
			}
			return
		}
		// The encoding is canonical and covers every decoded field, so equal
		// encodings mean equal messages (NaN floats included, which
		// reflect.DeepEqual would call unequal).
		enc, err := EncodeBinary(plain)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if genc, _ := EncodeBinary(guided); !bytes.Equal(enc, genc) {
			t.Fatalf("schema-guided decode %+v, plain %+v", guided, plain)
		}
		again, err := s.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if enc2, _ := EncodeBinary(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, plain)
		}
	})
}
