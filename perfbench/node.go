package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/server"
)

// node is one in-process rqpd server on a 127.0.0.1:0 loopback listener,
// with the benchmark's client for it.
type node struct {
	srv       *server.Server
	handler   http.Handler // the program's Handler(), unwrapped
	hs        *http.Server
	base      string
	client    *http.Client
	transport *http.Transport
	served    chan error
}

// startNode serves the program's Handler() for cfg. conns bounds the
// client's keep-alive connections; tr, when tracing, wraps the handler.
func startNode(cfg server.Config, tr *tracer, conns int) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.NewWithConfig(cfg)
	h := srv.Handler()
	n := &node{
		srv:     srv,
		handler: h,
		hs:      &http.Server{Handler: tr.wrapHandler("server.handler", h), ReadHeaderTimeout: 10 * time.Second},
		base:    "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
		transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	n.client = &http.Client{Transport: n.transport}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// close shuts the listener and the server down and waits for both: open
// connections drain, background session builds settle.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	n.srv.Close()
	n.transport.CloseIdleConnections()
	return err
}

// do sends one request and reads the whole response. The client span covers
// the request from send to the last body byte.
func (n *node) do(ctx context.Context, method, path string, body []byte, parent active) (int, []byte, error) {
	sp := parent.child("http.client")
	defer sp.end()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, n.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if h := sp.header(); h != "" {
		req.Header.Set(spanHeader, h)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

// call sends a JSON request, requires status want and decodes the response
// into out (when non-nil).
func (n *node) call(ctx context.Context, method, path string, in any, want int, out any, parent active) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	status, data, err := n.do(ctx, method, path, body, parent)
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, status, want, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

// createSession runs POST /v1/sessions and polls the session until its
// build is ready.
func (n *node) createSession(ctx context.Context, query string) (string, error) {
	var info struct {
		ID         string `json:"id"`
		Status     string `json:"status"`
		BuildError string `json:"buildError"`
	}
	if err := n.call(ctx, http.MethodPost, "/v1/sessions", map[string]string{"query": query}, http.StatusAccepted, &info, active{}); err != nil {
		return "", err
	}
	id := info.ID
	for info.Status != "ready" {
		switch info.Status {
		case "building":
		case "failed":
			return "", fmt.Errorf("session %s (%s) build failed: %s", id, query, info.BuildError)
		default:
			return "", fmt.Errorf("session %s (%s): unexpected status %q", id, query, info.Status)
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if err := n.call(ctx, http.MethodGet, "/v1/sessions/"+id, nil, http.StatusOK, &info, active{}); err != nil {
			return "", err
		}
	}
	return id, nil
}

// runRequest is the body of POST /v1/sessions/{id}/run.
type runRequest struct {
	Strategy string    `json:"strategy"`
	Truth    []float64 `json:"truth"`
	Durable  bool      `json:"durable,omitempty"`
}

// runWire is the part of a /v1 run response the checker compares. Trace IDs,
// run IDs and timestamps are never compared; the run ID only names the run
// to read back.
type runWire struct {
	Algorithm   string  `json:"algorithm"`
	TotalCost   float64 `json:"totalCost"`
	OptimalCost float64 `json:"optimalCost"`
	SubOpt      float64 `json:"subOpt"`
	Steps       int     `json:"steps"`
	RunID       string  `json:"runId"`
}
