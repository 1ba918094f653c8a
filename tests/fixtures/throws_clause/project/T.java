import java.io.IOException;
import java.io.Reader;

class T {
    int f(Reader r) throws IOException {
        int n = 0;
        n += r.read();
        return n;
    }

    int g(Reader r) throws IOException {
        int n = 0;
        n += r.read();
        return n * 2;
    }

    int h(Reader r) throws Exception {
        int n = 0;
        n += r.read();
        return n + 1;
    }
}
