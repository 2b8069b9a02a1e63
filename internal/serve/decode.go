package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// Request-body decoding. The two estimate routes carry most of the
// traffic, and encoding/json's reflection and scanner used to cost as
// much as answering a 64-query batch. Their bodies are read once into a
// pooled buffer and walked by a small scanner that takes only the plain
// form clients send: exact lower-case keys; model names of printable
// ASCII without escapes; numbers in JSON grammar that parse in range; no
// null. Numbers go through the same
// strconv.ParseFloat(s, 64) call encoding/json makes, so every accepted
// float is bit-identical. Any other body is handed, byte for byte, to
// encoding/json with DisallowUnknownFields, so the scanner never changes
// what a body means, and every rejection keeps the status and text
// encoding/json gives it. Like json.Decoder.Decode, the scanner stops
// after the closing brace and ignores what follows.

// maxBodyBytes caps request bodies, both when decoding locally and when
// buffering for a cluster forward.
const maxBodyBytes = 16 << 20

// batchBody is a decoded /v1/estimate/batch request. The queries sit
// row-major in flat with one length per query in lens, so a well-formed
// batch is wrapped as the inference tensor without a per-row copy.
// Bodies are pooled: nothing may keep flat or ts after putBatchBody.
type batchBody struct {
	model string
	flat  []float64
	lens  []int
	ts    []float64
	t     float64 // broadcast threshold, set when hasT
	hasT  bool
}

var batchBodies = sync.Pool{New: func() any { return new(batchBody) }}

// maxPooledFloats caps the query storage a pooled batchBody keeps, so
// one huge batch does not pin its memory for the life of the process.
const maxPooledFloats = 1 << 16

func getBatchBody() *batchBody {
	b := batchBodies.Get().(*batchBody)
	b.reset()
	return b
}

func putBatchBody(b *batchBody) {
	if cap(b.flat) > maxPooledFloats || cap(b.ts) > maxPooledFloats {
		return
	}
	batchBodies.Put(b)
}

func (b *batchBody) reset() {
	*b = batchBody{flat: b.flat[:0], lens: b.lens[:0], ts: b.ts[:0]}
}

// fromWire copies a body decoded by encoding/json into b.
func (b *batchBody) fromWire(w *estimateBatchRequest) {
	b.reset()
	b.model = w.Model
	for _, q := range w.Queries {
		b.flat = append(b.flat, q...)
		b.lens = append(b.lens, len(q))
	}
	b.ts = append(b.ts, w.Ts...)
	if w.T != nil {
		b.t, b.hasT = *w.T, true
	}
}

// bodyBufs recycles the raw body buffers of the estimate routes.
var bodyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// maxPooledBody caps the body buffers returned to bodyBufs.
const maxPooledBody = 1 << 20

// decodeJSON decodes the request body into v. *estimateRequest and
// *batchBody take the scanner (see the top of this file) and fall back
// to encoding/json over the same bytes, followed by the same read
// error; every other type streams through encoding/json.
func decodeJSON(r *http.Request, v any) error {
	switch v.(type) {
	case *estimateRequest, *batchBody:
	default:
		return decodeStream(http.MaxBytesReader(nil, r.Body, maxBodyBytes), v)
	}
	bp := bodyBufs.Get().(*[]byte)
	body, rerr := readBody(r, (*bp)[:0])
	defer func() {
		if cap(body) <= maxPooledBody {
			*bp = body[:0]
			bodyBufs.Put(bp)
		}
	}()
	switch v := v.(type) {
	case *estimateRequest:
		if rerr == nil && scanEstimate(body, v) {
			return nil
		}
		*v = estimateRequest{}
		return decodeStream(&replayBody{b: body, err: rerr}, v)
	case *batchBody:
		if rerr == nil && v.scan(body) {
			return nil
		}
		var wire estimateBatchRequest
		if err := decodeStream(&replayBody{b: body, err: rerr}, &wire); err != nil {
			return err
		}
		v.fromWire(&wire)
	}
	return nil
}

func decodeStream(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// readBody appends the whole body, read through http.MaxBytesReader, to
// buf. A body whose ContentLength exceeds buf's capacity gets a buffer
// of the announced size up front (plus one byte, so the read that sees
// EOF does not grow it).
func readBody(r *http.Request, buf []byte) ([]byte, error) {
	if n := r.ContentLength; n > 0 && n < maxBodyBytes && int(n) >= cap(buf) {
		buf = make([]byte, 0, n+1)
	}
	lr := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// replayBody serves bytes already read from a body, then the error that
// ended the read (io.EOF for a complete body), so encoding/json sees
// exactly the stream the request carried.
type replayBody struct {
	b   []byte
	err error
}

func (r *replayBody) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		if r.err != nil {
			return 0, r.err
		}
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// scanEstimate decodes a /v1/estimate body into req. It returns false
// for any body outside the scanner's subset; req is then partly filled
// and must be reset before falling back.
func scanEstimate(body []byte, req *estimateRequest) bool {
	s := scanner{b: body}
	var tmp [64]float64 // query scratch; req.Query gets an exact-size copy
	return s.list('{', '}', func() bool {
		key, ok := s.key()
		if !ok {
			return false
		}
		switch string(key) {
		case "model":
			var name []byte
			name, ok = s.str()
			req.Model = internName(name)
		case "query":
			var q []float64
			q, ok = s.floats(tmp[:0])
			req.Query = append(make([]float64, 0, len(q)), q...)
		case "t":
			req.T, ok = s.num()
		default:
			return false
		}
		return ok
	})
}

// scan decodes a /v1/estimate/batch body into b, which must be reset.
// It returns false for any body outside the scanner's subset. A
// repeated key replaces the earlier value, as in encoding/json.
func (b *batchBody) scan(body []byte) bool {
	s := scanner{b: body}
	return s.list('{', '}', func() bool {
		key, ok := s.key()
		if !ok {
			return false
		}
		switch string(key) {
		case "model":
			var name []byte
			name, ok = s.str()
			b.model = internName(name)
		case "queries":
			b.flat, b.lens = b.flat[:0], b.lens[:0]
			ok = s.list('[', ']', func() bool {
				n := len(b.flat)
				var ok bool
				b.flat, ok = s.floats(b.flat)
				b.lens = append(b.lens, len(b.flat)-n)
				return ok
			})
		case "ts":
			b.ts, ok = s.floats(b.ts[:0])
		case "t":
			b.t, ok = s.num()
			b.hasT = true
		default:
			return false
		}
		return ok
	})
}

// scanner walks a body for the fast path. Each method consumes one
// token or value (after optional whitespace) and reports false for
// anything outside the subset the fast path takes.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes the byte c.
func (s *scanner) eat(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// list consumes open, zero or more comma-separated items, and close;
// item consumes one item and reports whether it took it.
func (s *scanner) list(open, close byte, item func() bool) bool {
	if !s.eat(open) {
		return false
	}
	if s.eat(close) {
		return true
	}
	for {
		if !item() {
			return false
		}
		if s.eat(close) {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// str consumes a string of printable ASCII without escapes and returns
// its contents, which alias the body.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// key consumes an object key and its colon.
func (s *scanner) key() ([]byte, bool) {
	k, ok := s.str()
	return k, ok && s.eat(':')
}

// num consumes a number in JSON grammar and parses it as encoding/json
// does for a float64 field; out-of-range numbers are refused.
func (s *scanner) num() (float64, bool) {
	s.skipSpace()
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			return 0, false
		}
		i = skipDigits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return 0, false
		}
		i = skipDigits(b, i)
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, false
	}
	s.i = i
	return v, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// floats consumes an array of numbers, appending them to dst.
func (s *scanner) floats(dst []float64) ([]float64, bool) {
	ok := s.list('[', ']', func() bool {
		v, ok := s.num()
		dst = append(dst, v)
		return ok
	})
	return dst, ok
}

// internedNames maps the model names seen on the estimate routes to one
// shared copy, so decoding a name seen before allocates nothing. The map
// is copy-on-write and bounded; past maxInterned names a new name is
// simply allocated.
var internedNames atomic.Pointer[map[string]string]

const maxInterned = 64

func internName(b []byte) string {
	old := internedNames.Load()
	var names map[string]string
	if old != nil {
		names = *old
	}
	if s, ok := names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(names) < maxInterned {
		next := make(map[string]string, len(names)+1)
		for k, v := range names {
			next[k] = v
		}
		next[s] = s
		internedNames.CompareAndSwap(old, &next) // a lost race only skips this insert
	}
	return s
}
