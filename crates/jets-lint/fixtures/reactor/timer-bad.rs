fn nap() {
    thread::sleep(Duration::from_millis(1));
}

fn start(reactor: &Reactor) {
    reactor.every(TICK, move || nap());
    reactor.post(move || thread::sleep(Duration::from_millis(1)));
}
