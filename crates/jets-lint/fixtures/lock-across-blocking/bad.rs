fn holds_across_recv(inner: &Inner, rx: &Receiver<u8>) {
    let st = inner.sched.lock();
    let v = rx.recv();
    st.touch(v);
}

fn serve_metrics(inner: &Inner, sock: &mut TcpStream) {
    let st = inner.sched.lock();
    sock.flush();
    st.touch();
}

fn writes_output_under_lock(inner: &Inner, path: &Path, text: &str) {
    let st = inner.sched.lock();
    std::fs::write(path, text);
    st.touch();
}
