fn releases_before_recv(inner: &Inner, rx: &Receiver<u8>) {
    {
        let mut st = inner.sched.lock();
        st.touch();
    }
    let v = rx.recv();
    consume(v);
}

fn temporary_guard_send(writer: &Mutex<MsgWriter>) {
    writer.lock().send(&msg);
}

fn serve_metrics(inner: &Inner, sock: &mut TcpStream) {
    let page = {
        let st = inner.sched.lock();
        st.render()
    };
    sock.write_all(page.as_bytes());
    sock.flush();
}

fn queues_output_under_lock(inner: &Inner, path: PathBuf, text: String) {
    {
        let st = inner.sched.lock();
        st.table.write(text.len());
        inner.outputs.lock().push((path, text));
    }
    let files = {
        let mut queued = inner.outputs.lock();
        std::mem::take(&mut *queued)
    };
    for (path, text) in files {
        std::fs::write(path, text);
    }
}
