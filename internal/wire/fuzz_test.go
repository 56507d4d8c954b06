package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/clamshell/clamshell/internal/server"
)

// FuzzWireFrame feeds arbitrary bytes to the frame reader: malformed
// lengths, truncated frames and bit flips must never panic or over-read,
// and any frame it does accept must round-trip through writeFrame.
func FuzzWireFrame(f *testing.F) {
	var seed bytes.Buffer
	bw := bufio.NewWriter(&seed)
	writeFrame(bw, []byte("hello"))
	writeFrame(bw, nil)
	writeFrame(bw, bytes.Repeat([]byte{7}, 300))
	bw.Flush()
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for i := 0; i < 64; i++ {
			payload, err := readFrame(br, buf)
			if err != nil {
				return
			}
			// An accepted frame re-encodes to something the reader accepts
			// again with the same payload.
			var out bytes.Buffer
			obw := bufio.NewWriter(&out)
			if err := writeFrame(obw, payload); err != nil {
				t.Fatalf("re-encode accepted frame: %v", err)
			}
			obw.Flush()
			back, err := readFrame(bufio.NewReader(bytes.NewReader(out.Bytes())), nil)
			if err != nil {
				t.Fatalf("re-read re-encoded frame: %v", err)
			}
			if !bytes.Equal(back, payload) {
				t.Fatalf("frame roundtrip changed payload")
			}
			buf = payload[:0:cap(payload)]
		}
	})
}

// FuzzWireCodec feeds arbitrary payloads to the message decoders: no input
// may panic or cause an oversized allocation, and any request that decodes
// must re-encode byte-identically (canonical encoding).
func FuzzWireCodec(f *testing.F) {
	f.Add(encodeRequest(nil, request{op: opJoin, name: "alice"}))
	f.Add(encodeRequest(nil, request{op: opHeartbeat, worker: 7}))
	f.Add(encodeRequest(nil, request{op: opLeave, worker: 5}))
	f.Add(encodeRequest(nil, request{op: opFetch, worker: 3}))
	f.Add(encodeRequest(nil, request{op: opSubmit, worker: 1, task: 2, labels: []int{0, 1}}))
	f.Add(encodeRequest(nil, request{op: opEnqueue, specs: []server.TaskSpec{
		{Records: []string{"a"}, Classes: 2, Quorum: 1, Priority: -1},
	}}))
	f.Add(encodeRequest(nil, request{op: opEnqueue, specs: []server.TaskSpec{
		{Records: []string{"a", "b"}, Classes: 3, Quorum: 2,
			Features: [][]float64{{0.25, -1.5}, {1e-9, 2.5}}},
	}}))
	f.Add(encodeRequest(nil, request{op: opResult, task: 9}))
	f.Add([]byte{opEnqueue, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err == nil {
			// Whatever decodes must survive an encode/decode round trip
			// unchanged (the input itself may use non-minimal varints, so
			// byte equality with data is not required).
			enc := encodeRequest(nil, req)
			req2, err := decodeRequest(enc)
			if err != nil || !reflect.DeepEqual(req, req2) {
				t.Fatalf("request roundtrip: %+v -> %+v (err=%v)", req, req2, err)
			}
		}
		// Response decoders must be equally robust (the client runs them on
		// whatever the network delivers).
		r := reader{b: data}
		decodeAssignment(&r)
		r = reader{b: data}
		decodeTaskStatus(&r)
		r = reader{b: data}
		decodeIDs(&r)
	})
}

// FuzzBatchFrame feeds arbitrary bytes to the v2 batch envelope reader:
// hostile counts, truncated sub-messages, oversized lengths and trailing
// garbage must never panic or over-read, and any envelope that decodes in
// full must survive a canonical re-encode/decode round trip with every
// tag and body intact.
func FuzzBatchFrame(f *testing.F) {
	env := binary.AppendUvarint(nil, 2)
	env = appendSub(env, 0, encodeRequest(nil, request{op: opHeartbeat, worker: 1}))
	env = appendSub(env, 1, encodeRequest(nil, request{op: opFetch, worker: 1}))
	f.Add(env)
	one := binary.AppendUvarint(nil, 1)
	one = appendSub(one, 42, encodeRequest(nil, request{op: opJoin, name: "bob"}))
	f.Add(one)
	f.Add(binary.AppendUvarint(nil, 0))               // empty batch
	f.Add(binary.AppendUvarint(nil, MaxBatch+1))      // hostile count
	f.Add(append(binary.AppendUvarint(nil, 1), 0, 5)) // sub-length past the end
	f.Add(append(one[:len(one):len(one)], 0xAA))      // trailing garbage
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		br, err := newBatchReader(data)
		if err != nil {
			return
		}
		type sub struct {
			tag  uint64
			body []byte
		}
		var subs []sub
		for {
			tag, body, ok, err := br.next()
			if err != nil {
				return
			}
			if !ok {
				break
			}
			subs = append(subs, sub{tag, append([]byte(nil), body...)})
		}
		// Fully decoded: the canonical re-encode (what the client and
		// server emit) must decode back to the identical sub-messages.
		enc := binary.AppendUvarint(nil, uint64(len(subs)))
		for _, s := range subs {
			enc = appendSub(enc, s.tag, s.body)
		}
		br2, err := newBatchReader(enc)
		if err != nil {
			t.Fatalf("re-reading canonical envelope: %v", err)
		}
		for i := 0; ; i++ {
			tag, body, ok, err := br2.next()
			if err != nil {
				t.Fatalf("canonical envelope sub %d: %v", i, err)
			}
			if !ok {
				if i != len(subs) {
					t.Fatalf("canonical envelope lost subs: %d of %d", i, len(subs))
				}
				break
			}
			if tag != subs[i].tag || !bytes.Equal(body, subs[i].body) {
				t.Fatalf("sub %d changed in roundtrip: tag %d->%d", i, subs[i].tag, tag)
			}
		}
	})
}

// FuzzHandshake feeds arbitrary preamble bytes to the server-side version
// negotiation: it must accept exactly the preambles with the right magic
// and a version in [Version2, MaxVersion], echo that same preamble back,
// and reject everything else without panicking or over-reading.
func FuzzHandshake(f *testing.F) {
	f.Add([]byte(magicPrefix + "\x01")) // retired v1: must be refused
	f.Add([]byte(Magic))
	f.Add([]byte(magicPrefix + "\x00")) // version below the floor
	f.Add([]byte(magicPrefix + "\x03")) // version beyond MaxVersion
	f.Add([]byte("XLAMWIR\x01"))        // wrong magic
	f.Add([]byte(magicPrefix))          // truncated: no version byte
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		br := bufio.NewReader(bytes.NewReader(data))
		bw := bufio.NewWriter(&out)
		err := serverHandshake(br, bw)
		valid := len(data) >= len(magicPrefix)+1 &&
			string(data[:len(magicPrefix)]) == magicPrefix &&
			data[len(magicPrefix)] >= Version2 && data[len(magicPrefix)] <= MaxVersion
		if !valid {
			if err == nil {
				t.Fatalf("accepted invalid preamble %q", data)
			}
			if out.Len() != 0 {
				t.Fatalf("answered invalid preamble %q with %q", data, out.String())
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected valid preamble %q: %v", data[:len(magicPrefix)+1], err)
		}
		if want := string(data[:len(magicPrefix)+1]); out.String() != want {
			t.Fatalf("echoed %q, want %q", out.String(), want)
		}
	})
}
