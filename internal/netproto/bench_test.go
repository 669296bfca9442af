package netproto

import (
	"bytes"
	"testing"
)

// The acceptance benchmarks for the codec: BenchmarkEncodeGossip and
// BenchmarkDecodeRequest must report 0 allocs/op. Run with:
//
//	go test -bench 'Encode|Decode' -benchmem ./internal/netproto/

var benchGossip = &Envelope{Kind: TypeGossip, From: 3, To: 7, Seq: 123456, Load: 847.25}

func BenchmarkEncodeGossip(b *testing.B) {
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrameV2(buf[:0], benchGossip)
		if err != nil {
			b.Fatal(err)
		}
	}
}

var benchRequest = &Envelope{Kind: TypeRequest, From: 9, To: 4, Seq: 55, Origin: 12, ReqID: 98765, Hops: 3, Doc: "docs/hot-page.html"}

func BenchmarkDecodeRequest(b *testing.B) {
	frame, err := AppendFrameV2(nil, benchRequest)
	if err != nil {
		b.Fatal(err)
	}
	payload := frame[4:]
	var in DocInterner
	env := &Envelope{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodePayload(env, payload, &in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeRequest(b *testing.B) {
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrameV2(buf[:0], benchRequest)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeGossip(b *testing.B) {
	frame, err := AppendFrameV2(nil, benchGossip)
	if err != nil {
		b.Fatal(err)
	}
	payload := frame[4:]
	env := &Envelope{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodePayload(env, payload, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchResponse() *Envelope {
	return &Envelope{
		Kind: TypeResponse, From: 2, To: 12, Seq: 7, Origin: 12, ReqID: 98765,
		ServedBy: 2, Hops: 3, Doc: "docs/hot-page.html", Body: bytes.Repeat([]byte("w"), 1024),
	}
}

func BenchmarkEncodeResponse1K(b *testing.B) {
	env := benchResponse()
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrameV2(buf[:0], env)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResponse1K(b *testing.B) {
	frame, err := AppendFrameV2(nil, benchResponse())
	if err != nil {
		b.Fatal(err)
	}
	payload := frame[4:]
	var in DocInterner
	env := &Envelope{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodePayload(env, payload, &in); err != nil {
			b.Fatal(err)
		}
	}
}
