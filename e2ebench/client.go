package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// requestTimeout bounds one request; a request past it counts as failed.
const requestTimeout = 20 * time.Second

// conn is one load-generator connection to the daemon. Each conn's
// transport holds at most one TCP connection, so the number of conns a
// workload opens is the number of connections it uses.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// call is the client's record of one request: its span, tagged with the
// trace ID the server echoed in X-Trace-Id.
type call struct {
	Route   string
	TraceID uint64
	Start   time.Time
	RTT     time.Duration
	Status  int
	Err     error
}

func (c call) ok() bool { return c.Err == nil && c.Status >= 200 && c.Status < 300 }

// post sends body to path and decodes a 2xx JSON response into out. The
// round trip covers writing the request through reading the whole body.
func (c *conn) post(route, path string, body []byte, out any) call {
	cl := call{Route: route, Start: time.Now()}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		cl.RTT, cl.Err = time.Since(cl.Start), err
		return cl
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	cl.RTT = time.Since(cl.Start)
	cl.Status = resp.StatusCode
	cl.TraceID, _ = strconv.ParseUint(resp.Header.Get("X-Trace-Id"), 16, 64)
	switch {
	case err != nil:
		cl.Err = err
	case cl.Status < 200 || cl.Status >= 300:
		cl.Err = fmt.Errorf("%s: status %d: %s", path, cl.Status, bytes.TrimSpace(data))
	case out != nil:
		if err := json.Unmarshal(data, out); err != nil {
			cl.Err = fmt.Errorf("%s: decode response: %w", path, err)
		}
	}
	return cl
}

// getJSON fetches path and decodes its JSON body into out.
func (c *conn) getJSON(path string, out any) error {
	data, err := c.get(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("GET %s: decode: %w", path, err)
	}
	return nil
}

func (c *conn) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, nil
}

// phase counts the requests of one stage of a run: sent, succeeded,
// failed (any non-2xx status, transport error or timeout).
type phase struct {
	Name                string
	Sent, OK, Failed    int
	Refused, Status5xx  int // 429s and 5xx among the failures
	ClientClosed, Other int // 499s and transport errors/timeouts
	FirstErr            error
}

func (p *phase) count(c call) {
	p.Sent++
	if c.ok() {
		p.OK++
		return
	}
	p.Failed++
	switch {
	case c.Err != nil && c.Status == 0:
		p.Other++
	case c.Status == http.StatusTooManyRequests:
		p.Refused++
	case c.Status == 499:
		p.ClientClosed++
	case c.Status >= 500:
		p.Status5xx++
	}
	if p.FirstErr == nil {
		p.FirstErr = c.Err
	}
}

// ledger holds every phase of a run; goroutines of one phase share it.
type ledger struct {
	mu     sync.Mutex
	phases []*phase
}

func (l *ledger) phase(name string) *phase {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.phases {
		if p.Name == name {
			return p
		}
	}
	p := &phase{Name: name}
	l.phases = append(l.phases, p)
	return p
}

// count records c under the named phase.
func (l *ledger) count(name string, c call) {
	p := l.phase(name)
	l.mu.Lock()
	p.count(c)
	l.mu.Unlock()
}

func (l *ledger) totals() (sent, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.phases {
		sent += p.Sent
		failed += p.Failed
	}
	return sent, failed
}

func (l *ledger) print(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.phases {
		frac := 0.0
		if p.Sent > 0 {
			frac = float64(p.Failed) / float64(p.Sent)
		}
		fmt.Fprintf(w, "phase %-14s sent=%d succeeded=%d failed=%d failed_frac=%.4g (429=%d 5xx=%d 499=%d transport/timeout=%d)\n",
			p.Name, p.Sent, p.OK, p.Failed, frac, p.Refused, p.Status5xx, p.ClientClosed, p.Other)
		if p.FirstErr != nil {
			fmt.Fprintf(w, "phase %-14s first error: %v\n", p.Name, p.FirstErr)
		}
	}
}
