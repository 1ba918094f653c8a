import java.util.List;

class G {
    <T> int f(List<T> xs) {
        int n = 0;
        n += xs.size();
        return n;
    }
}
