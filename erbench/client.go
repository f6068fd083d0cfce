package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"
)

// client sends requests straight to the service handler: no sockets, so
// the benchmark measures the handler, not the loopback stack.
type client struct {
	h   http.Handler
	rec *recorder
}

// call sends one request and decodes a JSON reply into out (when non-nil
// and the status is 2xx). It returns the status and the handler's time.
// Under parent (traced runs) the request is recorded as a service span
// that the persistence probes attribute their calls to.
func (c *client) call(parent *active, method, path string, body, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	var sp *active
	if parent != nil {
		sp = c.rec.begin(parent.op, parent, layerService, method+" "+route(path)).enter()
	}
	start := time.Now()
	c.h.ServeHTTP(w, req)
	d := time.Since(start)
	sp.end()
	if out != nil && w.Code >= 200 && w.Code < 300 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			return w.Code, d, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return w.Code, d, nil
}

// route strips the per-item part of a path so span names group by
// endpoint.
func route(path string) string {
	for _, prefix := range []string{"/v1/docs/", "/v1/entities/lookup", "/v1/entities/", "/v1/jobs/", "/v1/search", "/v1/traces"} {
		if len(path) >= len(prefix) && path[:len(prefix)] == prefix {
			return prefix
		}
	}
	return path
}
