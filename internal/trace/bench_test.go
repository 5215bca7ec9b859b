package trace

import (
	"bytes"
	"math/rand"
	"testing"

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
