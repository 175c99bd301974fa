package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"disjunct/internal/serve"
)

// outcome is the client-side record of one exchange, kept compact:
// a run holds one per request until verification, and the benchmark's
// own heap should not dominate the process's peak RSS.
type outcome struct {
	Status  int
	Err     string  // transport, decode or protocol error
	LatMS   float64 // send → last byte
	FirstMS float64 // send → first response byte; first model row for streams
	Resp    answer
	Stream  *streamEnd // streams only
}

// streamEnd is what a stream delivered: its terminal record, the
// number of model rows, and an order-free digest of the model set.
type streamEnd struct {
	Done     serve.StreamDoneRow
	Models   int
	ModelSet [sha256.Size]byte
}

// answer is the part of a serve.QueryResponse the benchmark uses.
type answer struct {
	Verdict    string
	Holds      bool
	Incomplete bool
	CauseCode  string
	Counters   serve.CountersJSON
	Path       string
	QueueMS    float64
	SolveMS    float64
}

// known holds the wire strings a run would otherwise retain one copy of
// per response.
var known = map[string]string{}

func init() {
	for _, s := range []string{"true", "false", "incomplete", "fast", "session", "brute", "portfolio:brute", "portfolio:fresh", "coalesced"} {
		known[s] = s
	}
}

func intern(s string) string {
	if k, ok := known[s]; ok {
		return k
	}
	return s
}

// definite reports a 200 with a complete, typed answer: a true/false
// verdict, or a stream whose terminal cause is "complete".
func (o outcome) definite(stream bool) bool {
	if o.Status != http.StatusOK || o.Err != "" {
		return false
	}
	if stream {
		st := o.Stream
		return st != nil && st.Done.Done && st.Done.Cause == serve.StreamCauseComplete && st.Done.Count == st.Models
	}
	return !o.Resp.Incomplete && (o.Resp.Verdict == "true" || o.Resp.Verdict == "false") && o.Resp.Holds == (o.Resp.Verdict == "true")
}

// server is an in-process serve.Server on a loopback listener.
type server struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startServer(cfg serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := serve.New(cfg)
	sv := &server{srv: s, http: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(sv.done)
		sv.http.Serve(ln)
	}()
	return sv, nil
}

// stop closes the listener and connections, drains the serve.Server
// and waits for the serving goroutine to exit.
func (sv *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sv.http.Shutdown(ctx)
	<-sv.done
	sv.srv.Drain(ctx)
}

// newClient returns a keep-alive client holding exactly one
// connection: the closed loop never has two requests in flight.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and reads the whole response.
func do(c *http.Client, base string, r request) outcome {
	var o outcome
	start := time.Now()
	resp, err := c.Post(base+r.Path, "application/json", bytes.NewReader(r.Body))
	if err != nil {
		o.Err = err.Error()
		o.LatMS = msSince(start)
		return o
	}
	defer resp.Body.Close()
	o.Status = resp.StatusCode
	o.FirstMS = msSince(start) // headers in: the first response byte
	if r.stream() && resp.StatusCode == http.StatusOK {
		readStream(resp.Body, start, &o)
	} else {
		body, err := io.ReadAll(resp.Body)
		o.LatMS = msSince(start)
		switch {
		case err != nil:
			o.Err = "read: " + err.Error()
		case resp.StatusCode != http.StatusOK:
			o.Err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		default:
			var q serve.QueryResponse
			if err := json.Unmarshal(body, &q); err != nil {
				o.Err = "decode: " + err.Error()
				break
			}
			o.Resp = answer{Verdict: intern(q.Verdict), Holds: q.Holds, Incomplete: q.Incomplete, CauseCode: q.CauseCode,
				Counters: q.Counters, Path: intern(q.Path), QueueMS: q.QueueMS, SolveMS: q.SolveMS}
		}
	}
	return o
}

// readStream consumes an NDJSON model stream: model rows, then exactly
// one terminal record.
func readStream(body io.Reader, start time.Time, o *outcome) {
	st := &streamEnd{}
	o.Stream = st
	var keys []string
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var line struct {
			serve.StreamDoneRow
			Model []string `json:"model"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			o.Err = "decode: " + err.Error()
			break
		}
		if line.Done {
			st.Done = line.StreamDoneRow
			continue
		}
		if st.Done.Done {
			o.Err = "model row after terminal record"
			break
		}
		if len(keys) == 0 {
			o.FirstMS = msSince(start) // streams: the first model row
		}
		keys = append(keys, modelKey(line.Model))
	}
	o.LatMS = msSince(start)
	if err := sc.Err(); err != nil && o.Err == "" {
		o.Err = "read: " + err.Error()
	}
	if o.Err == "" && !st.Done.Done {
		o.Err = "stream ended without a terminal record"
	}
	st.Models, st.ModelSet = len(keys), modelSetDigest(keys)
}

// modelSetDigest hashes a set of model keys independently of order.
func modelSetDigest(keys []string) [sha256.Size]byte {
	sort.Strings(keys)
	return sha256.Sum256([]byte(strings.Join(keys, ";")))
}

func modelKey(atoms []string) string {
	a := append([]string(nil), atoms...)
	sort.Strings(a)
	return strings.Join(a, ",")
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
