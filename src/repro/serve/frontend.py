"""Socket front end: N concurrent JSON-lines clients, ordered delivery.

Transport only — the front end knows nothing about retrieval. It accepts
TCP or unix-socket connections, reads newline-framed request lines with a
per-connection byte buffer (so a slowloris client trickling one byte at a
time occupies exactly its own reader thread, never the service), and
hands every non-empty line to the app's handler together with a
per-connection sequence number.

Responses come back through :meth:`Connection.deliver`, which enforces
the protocol's ordering contract per connection: response ``seq`` N is
written only after 0..N-1, writes are serialized under the connection's
lock (one complete JSON line at a time — no interleaving), and writes to
a client that disconnected are dropped without disturbing anyone else.

Framing faults are contained per connection: a line longer than
``max_line_bytes`` gets an in-order error response and the connection is
closed once that response drains (framing is lost — resyncing on the
next newline would silently misparse); EOF with a non-empty partial line
is served as a final request, matching the stdin loop's
final-line-without-newline behavior.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Callable, Optional, Tuple, Union

Address = Union[Tuple[str, int], str]  # ("host", port) or unix socket path

_RECV_BYTES = 65536


class Connection:
    """One client connection: framed reads, ordered serialized writes."""

    def __init__(self, sock: socket.socket, peer: str):  # noqa: D107
        self.sock = sock
        self.peer = peer
        self._lock = threading.Lock()
        self._next_seq = 0  # next seq to write
        self._seq = 0  # next seq to assign
        self._ready = {}  # seq -> response waiting for its turn
        self._close_after: Optional[int] = None
        self._dead = False

    def next_seq(self) -> int:
        """Assign the next request sequence number (reader thread only)."""
        seq = self._seq
        self._seq += 1
        return seq

    def deliver(self, seq: int, response: dict) -> None:
        """Write ``response`` as one JSON line, in sequence order.

        Out-of-order completions (batches finishing on different workers)
        park here until every earlier seq has been written.  Writes to a
        dead connection are dropped — the work is already done, there is
        just no one left to tell.
        """
        payload = (json.dumps(response) + "\n").encode("utf-8")
        with self._lock:
            self._ready[seq] = payload
            while self._next_seq in self._ready:
                data = self._ready.pop(self._next_seq)
                if not self._dead:
                    try:
                        self.sock.sendall(data)
                    except OSError:
                        self._dead = True
                self._next_seq += 1
            if self._close_after is not None and self._next_seq > self._close_after:
                self._shutdown_locked()

    def close_after(self, seq: int) -> None:
        """Close the connection once responses through ``seq`` are written."""
        with self._lock:
            self._close_after = seq
            if self._next_seq > seq:
                self._shutdown_locked()

    def close(self) -> None:
        """Drop the connection now (reader EOF or server shutdown)."""
        with self._lock:
            self._shutdown_locked()

    def _shutdown_locked(self) -> None:
        self._dead = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class SocketFrontend:
    """Listener + per-connection reader threads over TCP or a unix socket."""

    def __init__(
        self,
        address: Address,
        on_line: Callable[[Connection, int, str], None],
        *,
        max_line_bytes: int = 1 << 20,
        backlog: int = 128,
    ):  # noqa: D107
        self.address = address
        self.on_line = on_line
        self.max_line_bytes = max_line_bytes
        self.backlog = backlog
        self.bound_address: Optional[Address] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns = set()
        self._conns_lock = threading.Lock()
        self._stop = False

    # ----------------------------------------------------------- lifecycle
    def start(self) -> Address:
        """Bind, listen, and start accepting; returns the bound address."""
        if isinstance(self.address, str):
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.address)
            self.bound_address = self.address
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(self.address)
            self.bound_address = listener.getsockname()
        listener.listen(self.backlog)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self.bound_address

    def stop_accepting(self) -> None:
        """Close the listener; live connections keep reading and writing.

        First phase of graceful shutdown: no new clients get in, while
        responses already owed drain through the existing connections.
        """
        if self._listener is not None:
            # On Linux, close() alone does not wake a thread blocked in
            # accept(); shutdown() does, so the join below returns at once.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None and self._accept_thread.is_alive():
            self._accept_thread.join(timeout=5)

    def close(self) -> None:
        """Stop accepting and drop every live connection."""
        self._stop = True
        self.stop_accepting()
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()

    # ------------------------------------------------------------- accept
    def _accept_loop(self) -> None:
        while not self._stop:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            conn = Connection(sock, str(addr))
            with self._conns_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._reader_loop,
                args=(conn,),
                name=f"serve-client-{conn.peer}",
                daemon=True,
            ).start()

    # -------------------------------------------------------------- reader
    def _reader_loop(self, conn: Connection) -> None:
        buf = bytearray()
        try:
            while not self._stop:
                newline = buf.find(b"\n")
                while newline >= 0:
                    line = buf[:newline].decode("utf-8", "replace")
                    del buf[: newline + 1]
                    self._handle_line(conn, line)
                    newline = buf.find(b"\n")
                if len(buf) > self.max_line_bytes:
                    # Framing is unrecoverable: answer in order, then hang up.
                    seq = conn.next_seq()
                    conn.deliver(
                        seq,
                        {
                            "id": None,
                            "error": f"request line exceeds {self.max_line_bytes} "
                            "bytes; closing connection",
                        },
                    )
                    conn.close_after(seq)
                    return
                try:
                    chunk = conn.sock.recv(_RECV_BYTES)
                except OSError:
                    return  # client vanished (or server closed the socket)
                if not chunk:
                    # EOF: a trailing request without its newline still counts,
                    # exactly like the stdin loop at end of input.  Responses
                    # already owed keep flowing (the client may have only
                    # half-closed); the socket is dropped once they drain.
                    if buf:
                        self._handle_line(conn, buf.decode("utf-8", "replace"))
                    if conn._seq:
                        conn.close_after(conn._seq - 1)
                    else:
                        conn.close()
                    return
                buf += chunk
        finally:
            with self._conns_lock:
                self._conns.discard(conn)

    def _handle_line(self, conn: Connection, line: str) -> None:
        line = line.strip()
        if not line:
            return
        self.on_line(conn, conn.next_seq(), line)
