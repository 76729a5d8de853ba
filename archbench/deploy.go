package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/dlfs"
	"repro/internal/dlfs/cluster"
	"repro/internal/med"
	"repro/internal/sqltypes"
	"repro/internal/webui"
	"repro/internal/xuis"
)

const (
	secret        = "bench-secret"
	adminPassword = "bench-pw"
	members       = 3 // member daemons behind the fs2 gateway
)

// loopServer is one HTTP daemon on a loopback port.
type loopServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*loopServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &loopServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after close
	}()
	return s, nil
}

func (s *loopServer) close() {
	s.srv.Close() //nolint:errcheck // closing listeners and idle conns only
	<-s.done
}

// deployment is the archive as easiad and dlfsd deploy it, assembled in
// one process on loopback: the metadata DB with its SQL/MED coordinator,
// the web UI, file host fs1 (one daemon) and file host fs2 (a
// replication gateway, RF=2, over three member daemons).
type deployment struct {
	dir     string
	tr      *tracer // nil when tracing is off
	a       *core.Archive
	rs      *cluster.ReplicaSet
	web     *loopServer
	daemons []*loopServer // fs1, the members, the gateway
	hostURL map[string]string
	clients []*http.Transport
	// wrapHost, when set, wraps the archive's handle on each file host
	// (tests use it to corrupt what the program delivers).
	wrapHost func(core.FileHost) core.FileHost
}

// newClient returns an HTTP client on its own keep-alive transport;
// traced deployments wrap the transport so every dlfs RPC leaves a span
// of the given kind.
func (d *deployment) newClient(kind spanKind) *http.Client {
	t := &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}
	d.clients = append(d.clients, t)
	if d.tr == nil {
		return &http.Client{Transport: t}
	}
	return &http.Client{Transport: d.tr.roundTripper(kind, t)}
}

// deploy starts the file tier, opens the archive in dir and loads the
// generated archive into it. The web UI is started last.
func deploy(dir string, m *archiveModel, tr *tracer, wrapHost func(core.FileHost) core.FileHost) (d *deployment, err error) {
	d = &deployment{dir: dir, tr: tr, hostURL: map[string]string{}, wrapHost: wrapHost}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	auth, err := med.NewTokenAuthority([]byte(secret), 0)
	if err != nil {
		return d, err
	}
	newManager := func(host, root string) (*dlfs.Manager, error) {
		store, err := dlfs.NewStore(filepath.Join(dir, root))
		if err != nil {
			return nil, err
		}
		return dlfs.NewManager(host, store, auth), nil
	}
	fs1, err := newManager(host1, "fs1")
	if err != nil {
		return d, err
	}
	s1, err := serve(dlfs.NewServer(fs1))
	if err != nil {
		return d, err
	}
	d.daemons = append(d.daemons, s1)
	d.hostURL[host1] = s1.url

	d.rs = cluster.New(cluster.Config{
		Host: host2, ReplicationFactor: 2, Tokens: auth, SpoolDir: filepath.Join(dir, "spool"),
	})
	if err := os.MkdirAll(filepath.Join(dir, "spool"), 0o755); err != nil {
		return d, err
	}
	memberHC := d.newClient(spMember)
	for i := 0; i < members; i++ {
		name := fmt.Sprintf("fs2-m%d.sim:80", i)
		mgr, err := newManager(name, fmt.Sprintf("fs2-m%d", i))
		if err != nil {
			return d, err
		}
		s, err := serve(dlfs.NewServer(mgr))
		if err != nil {
			return d, err
		}
		d.daemons = append(d.daemons, s)
		if err := d.rs.Add(cluster.NewClientNode(dlfs.NewClient(name, s.url, memberHC))); err != nil {
			return d, err
		}
	}
	d.rs.Start()
	var gwHandler http.Handler = dlfs.NewServer(d.rs)
	if tr != nil {
		gwHandler = tr.handler(spGateway, gwHandler)
	}
	gw, err := serve(gwHandler)
	if err != nil {
		return d, err
	}
	d.daemons = append(d.daemons, gw)
	d.hostURL[host2] = gw.url

	if err := d.openArchive(); err != nil {
		return d, err
	}
	if err := loadArchive(d.a, m); err != nil {
		return d, fmt.Errorf("loading archive: %w", err)
	}
	var h http.Handler = webui.NewServer(d.a)
	if tr != nil {
		h = tr.handler(spWeb, h)
	}
	if d.web, err = serve(h); err != nil {
		return d, err
	}
	return d, nil
}

// openArchive opens the archive in d.dir with easiad's defaults and
// attaches both file hosts through dlfs clients.
func (d *deployment) openArchive() error {
	a, err := core.Open(core.Config{
		DBDir: filepath.Join(d.dir, "db"), Secret: []byte(secret), WorkRoot: filepath.Join(d.dir, "work"),
	})
	if err != nil {
		return err
	}
	d.a = a
	hc := d.newClient(spRPC)
	for _, host := range []string{host1, host2} {
		var fh core.FileHost = core.WrapClient(dlfs.NewClient(host, d.hostURL[host], hc))
		if d.tr != nil {
			fh = tracedHost{FileHost: fh, t: d.tr}
		}
		if d.wrapHost != nil {
			fh = d.wrapHost(fh)
		}
		a.AttachFileServer(fh)
	}
	if d.tr != nil {
		a.DB.SetLinkController(tracedLinks{lc: a.Coord, t: d.tr})
		a.DB.SetTraceThreshold(1) // every statement reaches the log
		a.DB.SetSlowQueryLog(d.tr.sqlSink())
	}
	return nil
}

// reopen closes the web UI and the archive, then opens the archive
// again from its directory, untraced, with the file tier still up.
func (d *deployment) reopen() error {
	if d.web != nil {
		d.web.close()
		d.web = nil
	}
	err := d.a.Close()
	d.a = nil
	if err != nil {
		return fmt.Errorf("closing archive: %w", err)
	}
	d.tr = nil
	return d.openArchive()
}

// close stops everything deploy started and removes the directory.
func (d *deployment) close() error {
	return errors.Join(d.stop(), os.RemoveAll(d.dir))
}

// stop stops everything deploy started and leaves its directory.
func (d *deployment) stop() error {
	var errs []error
	if d.web != nil {
		d.web.close()
	}
	if d.a != nil {
		errs = append(errs, d.a.Close())
	}
	if d.rs != nil {
		d.rs.Stop()
	}
	for _, s := range d.daemons {
		s.close()
	}
	for _, t := range d.clients {
		t.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// loadArchive installs the schema, archives every generated file on its
// host (a few puts in flight at once) and inserts the metadata in
// batched transactions, then installs the customised XUIS and the
// archivist account.
func loadArchive(a *core.Archive, m *archiveModel) error {
	if err := a.InitTurbulenceSchema(); err != nil {
		return err
	}
	files := append([]*fileRow{m.code}, m.files...)
	jobs := make(chan *fileRow)
	errc := make(chan error, len(files))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range jobs {
				if _, err := a.ArchiveFile(f.Host, f.Path, bytes.NewReader(f.data)); err != nil {
					errc <- fmt.Errorf("archiving %s: %w", f.url(), err)
				}
			}
		}()
	}
	for _, f := range files {
		jobs <- f
	}
	close(jobs)
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return err
	}

	tx, err := a.DB.Begin()
	if err != nil {
		return err
	}
	for _, au := range m.authors {
		if _, err := tx.Exec(`INSERT INTO AUTHOR VALUES (?, ?, ?, ?)`, sqltypes.NewString(au.Key),
			sqltypes.NewString(au.Name), sqltypes.NewString(au.Org), sqltypes.NewString("archive@example.org")); err != nil {
			tx.Rollback() //nolint:errcheck // the Exec error is the one to report
			return err
		}
	}
	for _, s := range m.sims {
		if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO SIMULATION VALUES (?, ?, ?, ?, %d, %g, %d, '2000-03-27 09:00:00')`,
			s.Grid, s.Reynolds, s.Timesteps), sqltypes.NewString(s.Key), sqltypes.NewString(s.Author),
			sqltypes.NewString(s.Title), sqltypes.NewString("Direct numerical simulation of channel flow.")); err != nil {
			tx.Rollback() //nolint:errcheck // the Exec error is the one to report
			return err
		}
	}
	if _, err := tx.Exec(`INSERT INTO CODE_FILE VALUES ('GetImage.easl', ?, 'EASL', 'Slice visualiser', DLVALUE(?))`,
		sqltypes.NewString(m.sims[0].Key), sqltypes.NewString(m.code.url())); err != nil {
		tx.Rollback() //nolint:errcheck // the Exec error is the one to report
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	const batch = 128
	for i := 0; i < len(m.files); i += batch {
		tx, err := a.DB.Begin()
		if err != nil {
			return err
		}
		for _, f := range m.files[i:min(i+batch, len(m.files))] {
			if _, err := tx.Exec(insertResultSQL, resultArgs(f)...); err != nil {
				tx.Rollback() //nolint:errcheck // the Exec error is the one to report
				return fmt.Errorf("inserting %s: %w", f.Name, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}

	spec, err := a.GenerateXUIS("TURBULENCE")
	if err != nil {
		return err
	}
	if err := customiseSpec(spec); err != nil {
		return err
	}
	if err := a.SetSpec(spec); err != nil {
		return err
	}
	return a.Users.Add(core.User{Name: "admin", Admin: true}, adminPassword)
}

const insertResultSQL = `INSERT INTO RESULT_FILE VALUES (?, ?, ?, ?, ?, ?, DLVALUE(?))`

func resultArgs(f *fileRow) []sqltypes.Value {
	return []sqltypes.Value{
		sqltypes.NewString(f.Name), sqltypes.NewString(f.Sim), sqltypes.NewInt(int64(f.Timestep)),
		sqltypes.NewString(f.Measurement), sqltypes.NewString(f.Format), sqltypes.NewInt(f.Size),
		sqltypes.NewString(f.url()),
	}
}

// customiseSpec applies easiad's demo customisations to the generated
// XUIS: author-name substitution for SIMULATION.AUTHOR_KEY and the
// GetImage operation on every RESULT_FILE dataset link.
func customiseSpec(spec *xuis.Spec) error {
	if err := spec.SetFKSubstitution("SIMULATION", "AUTHOR_KEY", "AUTHOR.NAME"); err != nil {
		return err
	}
	return spec.AddOperation("RESULT_FILE", "DOWNLOAD_RESULT", &xuis.Operation{
		Name: "GetImage", Type: "EASL", Filename: "getimage.easl", Format: "easl", GuestAccess: true,
		Location: &xuis.Location{DatabaseResult: &xuis.DatabaseResult{
			ColID:      "CODE_FILE.DOWNLOAD_CODE_FILE",
			Conditions: []xuis.Condition{{ColID: "CODE_FILE.CODE_NAME", Eq: "'GetImage.easl'"}},
		}},
		Description: "Visualise one slice of the dataset without downloading it",
		Parameters: &xuis.Parameters{Params: []xuis.Param{
			{Variable: xuis.Variable{
				Description: "Select the slice you wish to visualise:",
				Select: &xuis.Select{Name: "slice", Size: 3, Options: []xuis.Option{
					{Value: "x", Label: "x plane"}, {Value: "y", Label: "y plane"}, {Value: "z", Label: "z plane"},
				}},
			}},
			{Variable: xuis.Variable{
				Description: "Select velocity component or pressure:",
				Inputs: []xuis.Input{
					{Type: "radio", Name: "type", Value: "u", Label: "u speed"},
					{Type: "radio", Name: "type", Value: "v", Label: "v speed"},
					{Type: "radio", Name: "type", Value: "w", Label: "w speed"},
					{Type: "radio", Name: "type", Value: "p", Label: "pressure"},
				},
			}},
		}},
	})
}
