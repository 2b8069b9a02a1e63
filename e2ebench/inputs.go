package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"selnet/internal/distance"
	"selnet/internal/experiments"
	"selnet/internal/ingest"
	"selnet/internal/modelcodec"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

const (
	// trainEpochs keeps model fitting to seconds: the benchmark measures
	// serving, and accuracy only has to repeat across runs of one build.
	trainEpochs = 3
	// The accuracy sample is an eps-approximation of range counts with
	// probability 1-delta: m >= (VC + ln 1/delta) / (2 eps^2), where
	// distance-ball queries in dim dimensions have VC dimension dim+1.
	sampleEps   = 0.07
	sampleDelta = 0.05
	// queryJitter perturbs database vectors into traffic queries, so no
	// two generated queries coincide.
	queryJitter = 0.05
)

// buildNames maps the served model names to experiments.BuildModel's.
var buildNames = map[string]string{"selnet": "SelNet", "dnn": "DNN", "umnn": "UMNN", "dln": "DLN"}

// inputs is everything a run serves and sends: the database, the fitted
// models as saved files, the accuracy sample and the traffic sources.
// The daemon receives only the files, never the seed.
type inputs struct {
	seed   int64
	db     *vecdata.Database
	dbCSV  string
	models []string                        // served model names; models[0] takes updates
	paths  map[string]string               // model name -> saved file
	ref    map[string]modelcodec.Estimator // each saved file loaded back in process
	sample []vecdata.Query                 // accuracy sample with exact counts
	ts     []float64                       // thresholds traffic queries draw from
}

// makeInputs builds the fasttext-cos database at the experiments full
// scale, fits the named models through experiments.BuildModel, saves
// them with modelcodec.SaveFile and loads them back as the in-process
// reference. The database and models come from the full configuration's
// own seed, so every run serves the same system; the seed varies the
// traffic and the accuracy sample. (Per-seed models made serving costs
// differ by up to 15% between seeds, which is the models' doing, not the
// serving path's.)
func makeInputs(seed int64, dir string, models []string) (*inputs, error) {
	cfg := experiments.FullConfig()
	cfg.Epochs = trainEpochs
	env := experiments.NewEnv(cfg, "fasttext-cos")
	in := &inputs{
		seed:   seed,
		db:     env.DB,
		dbCSV:  filepath.Join(dir, "db.csv"),
		models: models,
		paths:  map[string]string{},
		ref:    map[string]modelcodec.Estimator{},
	}
	for _, q := range env.Train {
		in.ts = append(in.ts, q.T)
	}
	for _, name := range models {
		est, ok := experiments.BuildModel(cfg, env, buildNames[name]).(modelcodec.Estimator)
		if !ok {
			return nil, fmt.Errorf("model %s is not servable", name)
		}
		path := filepath.Join(dir, name+".gob")
		if err := modelcodec.SaveFile(path, est); err != nil {
			return nil, err
		}
		ref, err := modelcodec.LoadFile(path)
		if err != nil {
			return nil, err
		}
		in.paths[name], in.ref[name] = path, ref
	}
	f, err := os.Create(in.dbCSV)
	if err != nil {
		return nil, err
	}
	if err := vecdata.WriteCSV(f, env.DB); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	m := ingest.VCSampleSize(sampleEps, sampleDelta, env.DB.Dim+1)
	wl := vecdata.GeometricWorkload(in.rng(1), env.DB, (m+cfg.W-1)/cfg.W, cfg.W)
	in.sample = wl.Queries
	return in, nil
}

// rng returns the seeded source for one stream of the run; each stream
// has its own so adding draws to one leaves the others unchanged.
func (in *inputs) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(in.seed*1_000_003 + stream))
}

// query is one estimate request's input.
type query struct {
	x []float64
	t float64
}

// newQuery draws a distinct traffic query: a jittered database vector
// with a threshold from the training workload.
func (in *inputs) newQuery(rng *rand.Rand) query {
	return query{x: vecdata.SampleLike(rng, in.db, queryJitter), t: in.ts[rng.Intn(len(in.ts))]}
}

// hotSubset picks the database vectors a shifted insert stream
// concentrates on: a seeded tenth of the data.
func (in *inputs) hotSubset(rng *rand.Rand) [][]float64 {
	idx := rng.Perm(in.db.Size())[:in.db.Size()/10]
	hot := make([][]float64, len(idx))
	for i, j := range idx {
		hot[i] = in.db.Vecs[j]
	}
	return hot
}

// shiftedVector draws an insert from a distribution shifted off the
// data's: a jittered copy of a hot vector, so inserts pile up around a
// tenth of the data and the labels of queries there move.
func (in *inputs) shiftedVector(rng *rand.Rand, hot [][]float64) []float64 {
	base := hot[rng.Intn(len(hot))]
	v := make([]float64, len(base))
	for i, b := range base {
		v[i] = b + rng.NormFloat64()*queryJitter
	}
	return distance.Normalize(v)
}

// refBatch is the in-process answer for qs on model name.
func (in *inputs) refBatch(name string, qs []query) []float64 {
	est := in.ref[name]
	x := tensor.New(len(qs), est.Dim())
	ts := make([]float64, len(qs))
	for i, q := range qs {
		copy(x.Row(i), q.x)
		ts[i] = q.t
	}
	return est.EstimateBatch(x, ts)
}

// sampleQueries returns the accuracy sample as queries.
func (in *inputs) sampleQueries() []query {
	qs := make([]query, len(in.sample))
	for i, q := range in.sample {
		qs[i] = query{x: q.X, t: q.T}
	}
	return qs
}
