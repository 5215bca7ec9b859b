package trace

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"predctl/internal/control"
	"predctl/internal/deposet"
)

func BenchmarkDecode(b *testing.B) {
	d := deposet.Random(rand.New(rand.NewSource(1)), deposet.DefaultGen(16, 250_000))
	var buf bytes.Buffer
	if err := Encode(&buf, d, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.NumStates()), "ns/state")
}

// BenchmarkEncode writes BenchmarkDecode's trace, and a var-carrying one
// by Encode and by its encoding/json reference, to io.Discard.
func BenchmarkEncode(b *testing.B) {
	trace := deposet.Random(rand.New(rand.NewSource(1)), deposet.DefaultGen(16, 250_000))
	vars := varTrace(8, 256_000, []string{"cs", "req"})
	for _, c := range []struct {
		name   string
		d      *deposet.Deposet
		encode func(io.Writer, *deposet.Deposet, control.Relation) error
	}{
		{"trace", trace, Encode},
		{"vars", vars, Encode},
		{"vars/encoding-json", vars, encodeJSON},
	} {
		b.Run(c.name, func(b *testing.B) {
			var size countWriter
			if err := c.encode(&size, c.d, nil); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.encode(io.Discard, c.d, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.d.NumStates()), "ns/state")
		})
	}
}

// countWriter counts the bytes written to it.
type countWriter int

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}
