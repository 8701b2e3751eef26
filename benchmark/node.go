package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"lincount"
	"lincount/internal/server"
	"lincount/internal/wal"
)

// node is one lincount server the way a user runs it: a parsed program, a
// durable data directory, and the server's handler behind a real TCP
// listener on loopback.
type node struct {
	srv  *server.Server
	http *http.Server
	done chan struct{} // closed when Serve has returned
	url  string
	dir  string
}

// startNode goes from text to a listening server: parse, load (facts may
// be empty when dir already holds a checkpoint and log), recover/create
// the data directory, materialise, listen. fsync=always; the automatic
// checkpoint thresholds are off so that no background work starts on its
// own inside a timed window. st receives the time of the first two stages
// and the listener's part of the third.
func startNode(program, facts, dir string, st *stages) (*node, error) {
	begin := time.Now()
	p, err := lincount.ParseProgram(program)
	if err != nil {
		return nil, err
	}
	db := lincount.NewDatabase(p)
	if facts != "" {
		if err := db.LoadFacts(facts); err != nil {
			return nil, err
		}
	}
	st[0] = time.Since(begin)
	begin = time.Now()
	srv, err := server.New(server.Config{
		Program:           p,
		DB:                db,
		DataDir:           dir,
		WALSync:           wal.SyncAlways,
		CheckpointBytes:   -1,
		CheckpointRecords: -1,
	})
	if err != nil {
		return nil, err
	}
	st[1] = time.Since(begin)
	begin = time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	n := &node{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		dir:  dir,
	}
	go func() {
		defer close(n.done)
		_ = n.http.Serve(ln) // returns ErrServerClosed on close
	}()
	st[2] = time.Since(begin)
	return n, nil
}

// close stops the listener and the server and waits for both.
func (n *node) close() {
	n.http.Close()
	<-n.done
	n.srv.Close()
}

// client issues the benchmark's HTTP requests over at most conns
// keep-alive connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// statusError is a response other than 200.
type statusError struct {
	code       int
	path, body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("HTTP %d on %s: %s", e.code, e.path, e.body)
}

// post sends body to path and reads the whole response into buf.
func (c *client) post(path string, body []byte, buf *bytes.Buffer) error {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode, path: path, body: string(bytes.TrimSpace(buf.Bytes()))}
	}
	return nil
}

// queryBody and writeBody render request bodies ahead of the timed path.
func queryBody(goal string) []byte {
	b, _ := json.Marshal(server.QueryRequest{Query: goal}) // a struct of strings cannot fail to marshal
	return b
}

func writeBody(w swap) []byte {
	b, _ := json.Marshal(server.WriteRequest{Assert: w.assert, Retract: w.retract})
	return b
}

// read posts a query body and returns the answer set of the response.
func (c *client) read(body []byte, buf *bytes.Buffer) (answerSet, error) {
	if err := c.post("/v1/query", body, buf); err != nil {
		return answerSet{}, err
	}
	var resp struct {
		Answers [][]string `json:"answers"`
	}
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		return answerSet{}, err
	}
	return answersOf(resp.Answers), nil
}

// firstRead polls until the node answers a read with 200, which is what
// "started" means to a user; it fails after ten seconds.
func (c *client) firstRead(body []byte) error {
	var buf bytes.Buffer
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.post("/v1/query", body, &buf)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// stats fetches /v1/stats.
func (c *client) stats() (*server.StatsResponse, error) {
	resp, err := c.http.Get(c.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// copyDir copies the regular files of src into a new directory dst: the
// crash image a recovery starts from.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(src+"/"+e.Name(), dst+"/"+e.Name()); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// evalLibrary runs one library evaluation and returns its duration and
// result.
func evalLibrary(ctx context.Context, p *lincount.Program, db *lincount.Database, goal string, s lincount.Strategy) (time.Duration, *lincount.Result, error) {
	start := time.Now()
	res, err := lincount.EvalContext(ctx, p, db, goal, s)
	return time.Since(start), res, err
}
