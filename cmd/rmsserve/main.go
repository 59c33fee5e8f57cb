// Command rmsserve exposes a dynamic k-regret minimizing set over HTTP —
// the serving half of the FD-RMS reproduction. It runs in three modes:
//
//   - memory (default): loads a synthetic anti-correlated database and
//     serves it from a purely in-memory rms.Store.
//   - primary (-wal-dir): same serving surface backed by rms.DurableStore —
//     every update is WAL-logged before it is applied, checkpoints run
//     automatically, and the WAL directory doubles as the replication feed
//     followers tail.
//   - follower (-follow): bootstraps from the newest checkpoint in a
//     primary's WAL directory and tails its segments (internal/replica),
//     serving the same lock-free read API read-only with an applied seq and
//     staleness annotation on every response; /update answers 403.
//
// Endpoints:
//
//	GET  /result                  the current k-RMS answer
//	GET  /topk?u=0.3,0.7&k=5      top-k tuples under a preference vector (k <= 1000)
//	GET  /regret?u=0.3,0.7        k-regret ratio of the answer for one user
//	GET  /stats                   database size, answer size, maintenance stats
//	GET  /healthz                 liveness: 200 while the process serves, with state JSON
//	GET  /readyz                  readiness: 503 until bootstrap/recovery completes and staleness <= bound
//	GET  /metrics                 Prometheus text exposition of every layer's metrics
//	GET  /debug/vars              recent batch traces + cumulative phase breakdown, JSON
//	POST /update                  JSON batch: {"insert": [{"id":..,"values":[..]}], "delete": [ids]}
//
// GET /topk answers 400 for a k above maxTopK (1000), so one request cannot
// walk and encode the whole database.
//
// Every read response carries the generation it was served from plus the
// backend's replication position (state, applied_seq, staleness_ms where
// meaningful), so clients and routers can reason about versions and lag.
//
// A primary whose write-ahead log fails (a write, flush, fsync or rotation
// error) turns read-only until restarted: the POST /update that hit the
// failure, and every later one, answers 503 "outcome unknown" — the batch may
// or may not be on disk, and recovery on restart decides — while /readyz
// answers 503 with the reason and reads keep serving the last generation.
//
// With -pprof, the standard net/http/pprof profiling handlers are mounted
// under /debug/pprof/. A request hitting a registered path with the wrong
// method gets 405 with an Allow header rather than 404.
//
// Example:
//
//	rmsserve -addr :8080 -n 10000 -d 4 -r 20 -wal-dir /data/rms   # primary
//	rmsserve -addr :8081 -follow /data/rms                        # follower
//	curl 'localhost:8081/topk?u=0.5,0.5,0.2,0.1&k=3'
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"fdrms/internal/dataset"
	"fdrms/internal/obs"
	"fdrms/internal/replica"
	"fdrms/rms"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		n        = flag.Int("n", 10000, "initial synthetic database size")
		d        = flag.Int("d", 4, "attribute count")
		k        = flag.Int("k", 1, "regret rank k")
		r        = flag.Int("r", 20, "maximum answer size r")
		m        = flag.Int("m", 2048, "utility sample upper bound M")
		eps      = flag.Float64("eps", 0, "top-k slack epsilon (0 = auto-tune)")
		seed     = flag.Int64("seed", 1, "random seed")
		usePprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		walDir   = flag.String("wal-dir", "", "serve as a durable primary rooted at this WAL directory")
		follow   = flag.String("follow", "", "serve as a read-only follower tailing this primary WAL directory")
		stale    = flag.Duration("staleness-bound", 5*time.Second, "follower staleness past which /readyz degrades")
		poll     = flag.Duration("poll", 25*time.Millisecond, "follower poll interval for new WAL records")
		syncEach = flag.Bool("sync", true, "primary: fsync the WAL after every batch")
		ckptOps  = flag.Int("ckpt-ops", 50000, "primary: auto-checkpoint after this many applied ops (0 = off)")
	)
	flag.Parse()
	if *walDir != "" && *follow != "" {
		log.Fatal("rmsserve: -wal-dir and -follow are mutually exclusive")
	}

	reg := obs.NewRegistry()
	tel := rms.NewTelemetry(reg)
	opts := rms.Options{K: *k, R: *r, Epsilon: *eps, MaxUtilities: *m, Seed: *seed}

	var b backend
	switch {
	case *follow != "":
		fol := replica.Open(*follow, replica.Options{
			PollInterval:   *poll,
			StalenessBound: *stale,
			Metrics:        replica.NewMetrics(reg),
			Telemetry:      tel,
		})
		defer fol.Close()
		b = &followerBackend{fol: fol}
		log.Printf("rmsserve: following %s on %s (staleness bound %v)", *follow, *addr, *stale)
	case *walDir != "":
		ds, err := rms.OpenDurable(*walDir, *d, synthetic(*n, *d, *seed), opts, rms.DurableOptions{
			SyncEveryBatch:     *syncEach,
			CheckpointEveryOps: *ckptOps,
			RetainSegments:     2,
		})
		if err != nil {
			log.Fatalf("rmsserve: %v", err)
		}
		defer ds.Close()
		ds.SetTelemetry(tel)
		b = &durableBackend{ds: ds}
		log.Printf("rmsserve: durable primary at %s, n=%d on %s (applied seq %d)",
			*walDir, ds.Current().Len(), *addr, ds.AppliedSeq())
	default:
		store, err := rms.NewStore(*d, synthetic(*n, *d, *seed), opts)
		if err != nil {
			log.Fatalf("rmsserve: %v", err)
		}
		defer store.Close()
		store.SetTelemetry(tel)
		b = memBackend{store: store}
		log.Printf("rmsserve: serving n=%d d=%d k=%d r=%d on %s (generation %d)",
			store.Current().Len(), *d, *k, *r, *addr, store.Current().ID())
	}

	log.Fatal(http.ListenAndServe(*addr, newMux(b, tel, reg, *usePprof)))
}

// synthetic builds the default anti-correlated initial database.
func synthetic(n, d int, seed int64) []rms.Point {
	ds := dataset.AntiCor(n, d, seed)
	initial := make([]rms.Point, len(ds.Points))
	for i, p := range ds.Points {
		initial[i] = rms.Point{ID: p.ID, Values: p.Coords}
	}
	return initial
}

// meta is a backend's replication position, annotated onto every read
// response and both health endpoints.
type meta struct {
	State        string // "serving" | "bootstrapping" | "following" | "degraded"
	AppliedSeq   uint64
	HasSeq       bool
	StalenessMS  int64
	HasStaleness bool
	Reason       string // why not ready / degraded; "" otherwise
}

// backend abstracts what the HTTP surface serves from: an in-memory store,
// a durable primary, or a replication follower. Gen may return nil while a
// follower bootstraps.
type backend interface {
	Gen() *rms.Generation
	Meta() meta
	Ready() (bool, meta)
	Apply(batch []rms.Update) (*rms.Generation, error)
}

// errReadOnly marks backends that do not accept writes.
var errReadOnly = errors.New("read-only follower: send updates to the primary")

// memBackend serves a plain rms.Store (no durability, no replication).
type memBackend struct{ store *rms.Store }

func (b memBackend) Gen() *rms.Generation { return b.store.Current() }
func (b memBackend) Meta() meta           { return meta{State: "serving"} }
func (b memBackend) Ready() (bool, meta)  { return true, b.Meta() }
func (b memBackend) Apply(batch []rms.Update) (*rms.Generation, error) {
	if err := b.store.ApplyBatch(batch); err != nil {
		return nil, err
	}
	return b.store.Current(), nil
}

// durableBackend serves a durable primary; reads annotate the lock-free
// applied-seq mirror.
type durableBackend struct{ ds *rms.DurableStore }

func (b *durableBackend) Gen() *rms.Generation { return b.ds.Current() }
func (b *durableBackend) Meta() meta {
	mt := meta{State: "serving", AppliedSeq: b.ds.AppliedSeq(), HasSeq: true}
	if err := b.ds.Err(); err != nil {
		mt.Reason = err.Error()
	}
	return mt
}
func (b *durableBackend) Ready() (bool, meta) {
	mt := b.Meta()
	return mt.Reason == "", mt
}
func (b *durableBackend) Apply(batch []rms.Update) (*rms.Generation, error) {
	err := b.ds.ApplyBatch(batch)
	if err != nil && errors.Is(err, rms.ErrAutoCheckpoint) {
		// The write IS applied and durable; only the background checkpoint
		// failed. Alarm, serve the success — retrying the batch would
		// double-apply it.
		log.Printf("rmsserve: %v", err)
		err = nil
	}
	if err != nil {
		return nil, err
	}
	return b.ds.Current(), nil
}

// followerBackend serves a replication follower read-only.
type followerBackend struct{ fol *replica.Follower }

func (b *followerBackend) Gen() *rms.Generation {
	g, _ := b.fol.Current()
	return g
}

func (b *followerBackend) Meta() meta {
	st := b.fol.Status()
	return meta{
		State:        st.State.String(),
		AppliedSeq:   st.AppliedSeq,
		HasSeq:       true,
		StalenessMS:  st.Staleness.Milliseconds(),
		HasStaleness: true,
		Reason:       st.Reason,
	}
}

func (b *followerBackend) Ready() (bool, meta) {
	mt := b.Meta()
	if mt.State != replica.StateFollowing.String() {
		if mt.Reason == "" {
			mt.Reason = "replication not live (state " + mt.State + ")"
		}
		return false, mt
	}
	return true, mt
}

func (b *followerBackend) Apply([]rms.Update) (*rms.Generation, error) {
	return nil, errReadOnly
}

// pointJSON is the wire form of a tuple.
type pointJSON struct {
	ID     int       `json:"id"`
	Values []float64 `json:"values"`
}

func toJSON(ps []rms.Point) []pointJSON {
	out := make([]pointJSON, len(ps))
	for i, p := range ps {
		out[i] = pointJSON{ID: p.ID, Values: p.Values}
	}
	return out
}

// updateRequest is the POST /update body: insertions then deletions,
// applied as one atomic batch (readers see before or after, never between).
type updateRequest struct {
	Insert []pointJSON `json:"insert"`
	Delete []int       `json:"delete"`
}

// annotate merges the backend's replication position into a response body.
func annotate(body map[string]any, mt meta) map[string]any {
	body["state"] = mt.State
	if mt.HasSeq {
		body["applied_seq"] = mt.AppliedSeq
	}
	if mt.HasStaleness {
		body["staleness_ms"] = mt.StalenessMS
	}
	if mt.Reason != "" {
		body["reason"] = mt.Reason
	}
	return body
}

// healthBody is the document both health endpoints serve (and the router's
// prober parses).
func healthBody(g *rms.Generation, mt meta) map[string]any {
	body := map[string]any{"generation": uint64(0)}
	if g != nil {
		body["generation"] = g.ID()
	}
	return annotate(body, mt)
}

// maxUpdateBody caps a POST /update body at the WAL's record limit, which
// is also what rmsrouter buffers of a forwarded request. Without a cap one
// request could make the server allocate without bound.
const maxUpdateBody = 64 << 20

// maxTopK caps k on GET /topk. Without a cap one request could walk and
// encode the whole database.
const maxTopK = 1000

// newMux wires the read and update handlers around a backend. Every read
// handler pins ONE generation for its whole response, so the fields of a
// single response are mutually consistent even while batches commit.
//
// tel and reg are optional: a nil reg skips /metrics, a nil tel skips
// /debug/vars. Routes are registered through a method table so a wrong
// method on a known path answers 405 with an Allow header — the JSON error
// convention of this server, guaranteed here rather than inherited from
// whatever the stdlib mux of the moment does.
func newMux(b backend, tel *rms.Telemetry, reg *obs.Registry, usePprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	allowed := map[string][]string{}
	handle := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+path, h)
		allowed[path] = append(allowed[path], method)
	}

	// requireGen loads the serving generation or answers 503 (a follower
	// that has not bootstrapped yet has nothing consistent to serve).
	requireGen := func(w http.ResponseWriter) (*rms.Generation, bool) {
		g := b.Gen()
		if g == nil {
			httpError(w, http.StatusServiceUnavailable, "no generation yet: backend is %s", b.Meta().State)
			return nil, false
		}
		return g, true
	}

	// Liveness: 200 as long as the process serves requests — a degraded
	// follower is still alive (and still serving its last consistent
	// generation); orchestrators must not restart it for lag.
	handle(http.MethodGet, "/healthz", func(w http.ResponseWriter, req *http.Request) {
		writeOK(w, healthBody(b.Gen(), b.Meta()))
	})

	// Readiness: 503 until recovery/bootstrap completed AND replication
	// staleness is within bound — the signal routers and load balancers eject
	// on.
	handle(http.MethodGet, "/readyz", func(w http.ResponseWriter, req *http.Request) {
		ready, mt := b.Ready()
		body := healthBody(b.Gen(), mt)
		body["ready"] = ready
		if !ready {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(body)
			return
		}
		writeOK(w, body)
	})

	handle(http.MethodGet, "/result", func(w http.ResponseWriter, req *http.Request) {
		g, ok := requireGen(w)
		if !ok {
			return
		}
		writeOK(w, annotate(map[string]any{
			"generation": g.ID(),
			"result":     toJSON(g.Result()),
		}, b.Meta()))
	})

	handle(http.MethodGet, "/stats", func(w http.ResponseWriter, req *http.Request) {
		g, ok := requireGen(w)
		if !ok {
			return
		}
		st := g.Stats()
		writeOK(w, annotate(map[string]any{
			"generation":  g.ID(),
			"n":           g.Len(),
			"result_size": len(g.Result()),
			"epoch":       g.Epoch(),
			"stats":       st,
		}, b.Meta()))
	})

	handle(http.MethodGet, "/topk", func(w http.ResponseWriter, req *http.Request) {
		u, ok := parseUtility(w, req)
		if !ok {
			return
		}
		k := 10
		if s := req.URL.Query().Get("k"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad k: %v", err)
				return
			}
			k = v
		}
		if k > maxTopK {
			httpError(w, http.StatusBadRequest, "k = %d exceeds the limit of %d", k, maxTopK)
			return
		}
		g, ok := requireGen(w)
		if !ok {
			return
		}
		res, err := g.TopK(u, k)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		type scored struct {
			pointJSON
			Score float64 `json:"score"`
		}
		out := make([]scored, len(res))
		for i, s := range res {
			out[i] = scored{pointJSON{ID: s.Point.ID, Values: s.Point.Values}, s.Score}
		}
		writeOK(w, annotate(map[string]any{"generation": g.ID(), "topk": out}, b.Meta()))
	})

	handle(http.MethodGet, "/regret", func(w http.ResponseWriter, req *http.Request) {
		u, ok := parseUtility(w, req)
		if !ok {
			return
		}
		g, ok := requireGen(w)
		if !ok {
			return
		}
		ratio, err := g.RegretRatioFor(u)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeOK(w, annotate(map[string]any{
			"generation":   g.ID(),
			"regret_ratio": ratio,
			"result_size":  len(g.Result()),
		}, b.Meta()))
	})

	handle(http.MethodPost, "/update", func(w http.ResponseWriter, req *http.Request) {
		var ur updateRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxUpdateBody)).Decode(&ur); err != nil {
			if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
				return
			}
			httpError(w, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		batch := make([]rms.Update, 0, len(ur.Insert)+len(ur.Delete))
		for _, p := range ur.Insert {
			batch = append(batch, rms.Ins(rms.Point{ID: p.ID, Values: p.Values}))
		}
		for _, id := range ur.Delete {
			batch = append(batch, rms.Del(id))
		}
		g, err := b.Apply(batch)
		switch {
		case errors.Is(err, errReadOnly):
			httpError(w, http.StatusForbidden, "%v", err)
			return
		case errors.Is(err, rms.ErrLogFailed):
			httpError(w, http.StatusServiceUnavailable, "outcome unknown: %v", err)
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeOK(w, annotate(map[string]any{
			"generation": g.ID(),
			"applied":    len(batch),
			"n":          g.Len(),
		}, b.Meta()))
	})

	if reg != nil {
		handle(http.MethodGet, "/metrics", reg.ServeHTTP)
	}
	if tel != nil {
		handle(http.MethodGet, "/debug/vars", func(w http.ResponseWriter, req *http.Request) {
			writeOK(w, tel.DebugVars())
		})
	}
	if usePprof {
		// Registered without method patterns and outside the 405 table: the
		// pprof handlers do their own method handling (symbol accepts POST).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	// Bare-path fallbacks: a method pattern is more specific than the
	// method-less pattern for the same path, so these catch exactly the
	// wrong-method hits.
	for path, methods := range allowed {
		sort.Strings(methods)
		allow := strings.Join(methods, ", ")
		mux.HandleFunc(path, func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Allow", allow)
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed on %s", req.Method, req.URL.Path)
		})
	}

	return mux
}

// parseUtility reads the u=v1,v2,... query parameter.
func parseUtility(w http.ResponseWriter, req *http.Request) ([]float64, bool) {
	s := req.URL.Query().Get("u")
	if s == "" {
		httpError(w, http.StatusBadRequest, "missing utility parameter u=v1,v2,...")
		return nil, false
	}
	parts := strings.Split(s, ",")
	u := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad utility component %q: %v", p, err)
			return nil, false
		}
		u[i] = v
	}
	return u, true
}

// writeOK sends v as a 200 JSON response. The body is encoded before the
// status line goes out, so a value JSON cannot carry — a score that
// overflowed to +Inf — becomes a 500 with a JSON error, not an empty 200.
func writeOK(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A failed write means the client went away; there is nobody to tell.
	w.Write(body)
	io.WriteString(w, "\n")
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
