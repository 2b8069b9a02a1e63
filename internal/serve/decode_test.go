package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"selnet/internal/tensor"
)

// referenceDecode is what the estimate routes did before the scanner:
// encoding/json with unknown fields refused.
func referenceDecode(body []byte, v any) error {
	return decodeStream(bytes.NewReader(body), v)
}

// newBodyRequest builds a POST whose body is body, with ContentLength set.
func newBodyRequest(body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
}

// decodeSeeds are bodies the fuzz targets start from: the canonical form
// clients send plus each kind of body the scanner hands to
// encoding/json.
func decodeSeeds(tb testing.TB, canonical ...any) [][]byte {
	var seeds [][]byte
	for _, v := range canonical {
		raw, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	for _, s := range []string{
		`{"model":"m","query":[-0,0.5],"t":-0}`,
		`{"model":"m","queries":[[-0,1]],"ts":[-0]}`,
		`{"query":[1e400],"t":1}`,
		`{"queries":[[1e400]],"t":1}`,
		`{"query":[01],"t":1}`,
		`{"queries":[[.5]],"t":1}`,
		`{"query":[1.],"t":1}`,
		`{"queries":[[1E+2,-3e-2]],"ts":[2.5E0]}`,
		`{"model":"a\"b","query":[1],"t":1}`,
		`{"model":"m","queries":[[1]],"t":1}`,
		`{"model":"modèle","query":[1],"t":1}`,
		`{"model":"模型","queries":[[1]],"t":1}`,
		`null`,
		`{"model":null,"query":null,"t":null}`,
		`{"model":"m","queries":null,"ts":null,"t":null}`,
		`{"MODEL":"m","query":[1],"t":1}`,
		`{"Queries":[[1]],"T":1}`,
		`{"model":"m","query":[1],"t":1,"extra":true}`,
		`{"model":"m","queries":[[1]],"t":1,"query":[1]}`,
		`{"model":"m","query":[1],"t":1} trailing`,
		`{"model":"m","queries":[[1]],"t":1}{"model":"n"}`,
		`{"model":"m","query":[1,2`,
		`{"model":"m","queries":[[1,2],[3`,
		`{"model":"m","queries":[[1,2,3],[4,5]],"ts":[1,2]}`,
		`{"model":"m","queries":[[],[1]],"ts":[1,2]}`,
		`{"model":"a","model":"b","query":[1],"t":1}`,
		`{"t":1,"t":2,"ts":[],"queries":[]}`,
		`{"queries":[[1,2,3],[4]],"queries":[[5]],"ts":[1,2],"ts":[3],"query":[1],"query":[2,3]}`,
		` {"model" : "m" , "query" : [ 1 , 2 ] , "t" : 3 } `,
		`{}`,
		``,
		`[1,2]`,
		`{"query":"1","t":"x"}`,
		`{"queries":[[true]],"t":1}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// FuzzDecodeEstimate checks the /v1/estimate decoder against
// encoding/json: both accept or both reject with the same error, and an
// accepted body decodes to the same model, threshold bits and query bits.
func FuzzDecodeEstimate(f *testing.F) {
	for _, s := range decodeSeeds(f,
		estimateRequest{Model: "m", Query: []float64{0.1, -2.5e-7, 3}, T: 0.25},
		estimateRequest{Query: []float64{1}, T: math.SmallestNonzeroFloat64},
		estimateRequest{Model: "default", Query: []float64{math.MaxFloat64, -math.MaxFloat64}},
	) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want estimateRequest
		gotErr := decodeJSON(newBodyRequest(body), &got)
		wantErr := referenceDecode(body, &want)
		if !sameErr(gotErr, wantErr) {
			t.Fatalf("body %q: error %v, encoding/json %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.Model != want.Model || math.Float64bits(got.T) != math.Float64bits(want.T) ||
			(got.Query == nil) != (want.Query == nil) || !sameFloats(got.Query, want.Query) {
			t.Fatalf("body %q: decoded %+v, encoding/json %+v", body, got, want)
		}
	})
}

// FuzzDecodeEstimateBatch checks the /v1/estimate/batch decoder against
// encoding/json: both accept or both reject with the same error, and an
// accepted body decodes to the same model, the same presence and bits of
// "t", the same "ts" bits, and the same query rows.
func FuzzDecodeEstimateBatch(f *testing.F) {
	bt := 0.5
	for _, s := range decodeSeeds(f,
		estimateBatchRequest{Model: "m", Queries: [][]float64{{0.1, 0.2}, {-3, 4e-9}}, Ts: []float64{0.3, 1e21}},
		estimateBatchRequest{Queries: [][]float64{{1, 2, 3}}, T: &bt},
		estimateBatchRequest{Model: "auto", Queries: [][]float64{{math.SmallestNonzeroFloat64}}},
	) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got := getBatchBody()
		defer putBatchBody(got)
		gotErr := decodeJSON(newBodyRequest(body), got)
		var wire estimateBatchRequest
		wantErr := referenceDecode(body, &wire)
		if !sameErr(gotErr, wantErr) {
			t.Fatalf("body %q: error %v, encoding/json %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.model != wire.Model || got.hasT != (wire.T != nil) || !sameFloats(got.ts, wire.Ts) {
			t.Fatalf("body %q: decoded model %q t %v/%v ts %v, encoding/json %+v", body, got.model, got.hasT, got.t, got.ts, wire)
		}
		if wire.T != nil && math.Float64bits(got.t) != math.Float64bits(*wire.T) {
			t.Fatalf("body %q: t %v, encoding/json %v", body, got.t, *wire.T)
		}
		if len(got.lens) != len(wire.Queries) {
			t.Fatalf("body %q: %d rows, encoding/json %d", body, len(got.lens), len(wire.Queries))
		}
		flat := got.flat
		for i, q := range wire.Queries {
			if got.lens[i] != len(q) || !sameFloats(flat[:got.lens[i]], q) {
				t.Fatalf("body %q: row %d %v, encoding/json %v", body, i, flat[:got.lens[i]], q)
			}
			flat = flat[got.lens[i]:]
		}
		if len(flat) != 0 {
			t.Fatalf("body %q: %d coordinates beyond the last row", body, len(flat))
		}
	})
}

// TestScannerTakesCanonicalBodies checks that what json.Marshal writes
// for the two estimate bodies stays on the scanner: the differential
// fuzz targets alone would also pass if every body fell back.
func TestScannerTakesCanonicalBodies(t *testing.T) {
	bt := 0.5
	for _, v := range []estimateBatchRequest{
		{Model: "m", Queries: [][]float64{{0.1, -2}, {3e-9, 4}}, Ts: []float64{0.3, 1e21}},
		{Queries: [][]float64{{1, 2, 3}}, T: &bt},
	} {
		raw, _ := json.Marshal(v)
		b := getBatchBody()
		if !b.scan(raw) {
			t.Errorf("scanner declined %s", raw)
		}
		putBatchBody(b)
	}
	if raw := batchBody64x32(t); !getBatchBody().scan(raw) {
		t.Errorf("scanner declined the 64x32 body")
	}
	raw, _ := json.Marshal(estimateRequest{Model: "m", Query: []float64{0.1, -2.5e-7, 3}, T: 0.25})
	if !scanEstimate(raw, &estimateRequest{}) {
		t.Errorf("scanner declined %s", raw)
	}
}

// TestDecodeReplaysReadErrors checks that a body cut short by a read
// error reaches encoding/json with the same bytes and the same error: an
// oversized body answers the MaxBytesReader error, as before.
func TestDecodeReplaysReadErrors(t *testing.T) {
	big := append([]byte(`{"model":"m","queries":[[1]],"ts":[1],"pad":"`), bytes.Repeat([]byte("x"), maxBodyBytes)...)
	r := newBodyRequest(big)
	b := getBatchBody()
	defer putBatchBody(b)
	err := decodeJSON(r, b)
	var mbe *http.MaxBytesError
	if err == nil || !errors.As(err, &mbe) {
		t.Fatalf("oversized body: %v, want a MaxBytesError", err)
	}
	if err.Error() != "bad request body: http: request body too large" {
		t.Fatalf("oversized body: %q", err)
	}
}

// TestBatchRouteConcurrentPooledBodies sends batches of varying size
// from several goroutines at once: pooled bodies must never leak one
// request's queries or thresholds into another's answer.
func TestBatchRouteConcurrentPooledBodies(t *testing.T) {
	s, ts := newTestServer(t, Config{NoBatch: true})
	net := tinyNet(3, 4)
	if _, err := s.Registry().Publish("m", net, "mem"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				n := 1 + rng.Intn(40)
				req := estimateBatchRequest{Model: "m"}
				x := tensor.New(n, 4)
				for r := 0; r < n; r++ {
					for c := 0; c < 4; c++ {
						x.Set(r, c, rng.Float64())
					}
					req.Queries = append(req.Queries, append([]float64(nil), x.Row(r)...))
					req.Ts = append(req.Ts, rng.Float64())
				}
				raw, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/estimate/batch", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				var out estimateBatchResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("status %d: %v", resp.StatusCode, err)
					return
				}
				if want := net.EstimateBatch(x, req.Ts); !sameFloats(out.Estimates, want) {
					t.Errorf("batch of %d: got %v, want %v", n, out.Estimates, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// batchBody64x32 is a canonical 64-query, 32-dimensional batch body.
func batchBody64x32(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(1))
	req := estimateBatchRequest{Model: "m"}
	for i := 0; i < 64; i++ {
		q := make([]float64, 32)
		for j := range q {
			q[j] = rng.Float64()
		}
		req.Queries = append(req.Queries, q)
		req.Ts = append(req.Ts, rng.Float64())
	}
	raw, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// BenchmarkDecodeEstimateBatch times decoding a 64x32 batch body into
// the pooled flat form, with warm pools. It must not allocate.
func BenchmarkDecodeEstimateBatch(b *testing.B) {
	body := batchBody64x32(b)
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", rd)
	r.Body = io.NopCloser(rd)
	decode := func() {
		rd.Reset(body)
		bb := getBatchBody()
		if err := decodeJSON(r, bb); err != nil || len(bb.lens) != 64 {
			b.Fatalf("decode: %v (%d rows)", err, len(bb.lens))
		}
		putBatchBody(bb)
	}
	decode() // warm the pools and the interned model name
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
}

// BenchmarkHandleEstimateBatch times one 64x32 batch request through
// Server.Handler: decode, a compiled-plan pass and the response.
func BenchmarkHandleEstimateBatch(b *testing.B) {
	s := NewServer(Config{NoBatch: true})
	defer s.Close()
	if _, err := s.Registry().Publish("m", tinyNet(1, 32), "mem"); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	body := batchBody64x32(b)
	serve := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	serve() // compile the plan and warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
